package kernel

import (
	"testing"

	"dprof/internal/mem"
	"dprof/internal/sim"
)

func testKernel(cores int, kcfg Config) (*sim.Machine, *Kernel) {
	scfg := sim.DefaultConfig()
	scfg.Cores = cores
	m := sim.New(scfg)
	if kcfg.TxQueues == 0 {
		kcfg = DefaultConfig()
		kcfg.TxQueues = cores
	}
	return m, New(m, mem.DefaultConfig(), kcfg)
}

func TestTypesRegistered(t *testing.T) {
	_, k := testKernel(4, Config{})
	for _, name := range []string{"skbuff", "skbuff_fclone", "size-1024", "udp_sock", "tcp_sock", "task_struct", "slab", "array_cache", "net_device", "Qdisc", "eventpoll", "futex_queues", "tvec_base"} {
		if k.Alloc.TypeByName(name) == nil {
			t.Errorf("type %q not registered", name)
		}
	}
	if k.SkbType.Size != 256 || k.TCPSockType.Size != 1600 || k.PayloadType.Size != 1024 {
		t.Error("paper type sizes wrong")
	}
}

func TestAllocSKBAndFree(t *testing.T) {
	m, k := testKernel(2, Config{})
	m.Schedule(0, 0, func(c *sim.Ctx) {
		skb := k.AllocSKB(c, false)
		if tt, base, ok := k.Alloc.Resolve(k.skb(skb).addr); !ok || tt != k.SkbType || base != k.skb(skb).addr {
			t.Error("skb does not resolve to skbuff")
		}
		if tt, _, ok := k.Alloc.Resolve(k.skb(skb).data); !ok || tt != k.PayloadType {
			t.Error("payload does not resolve to size-1024")
		}
		k.KfreeSKB(c, skb)
	})
	m.RunAll()
	if st := k.Alloc.StatsFor(k.SkbType); st.Live != 0 {
		t.Fatalf("skb live = %d", st.Live)
	}
	if st := k.Alloc.StatsFor(k.PayloadType); st.Live != 0 {
		t.Fatalf("payload live = %d", st.Live)
	}
}

func TestFcloneUsesFclonePool(t *testing.T) {
	m, k := testKernel(2, Config{})
	m.Schedule(0, 0, func(c *sim.Ctx) {
		skb := k.AllocSKB(c, true)
		if tt, _, _ := k.Alloc.Resolve(k.skb(skb).addr); tt != k.FcloneType {
			t.Error("fclone skb not from skbuff_fclone pool")
		}
		k.KfreeSKB(c, skb)
	})
	m.RunAll()
}

func TestDevQueueXmitLocalFix(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TxQueues = 4
	cfg.LocalTxQueue = true
	m, k := testKernel(4, cfg)
	m.Schedule(2, 0, func(c *sim.Ctx) {
		skb := k.AllocSKB(c, false)
		k.skb(skb).len = 100
		if !k.Dev.DevQueueXmit(c, skb) {
			t.Error("xmit failed")
		}
		if k.skb(skb).queue != 2 {
			t.Errorf("local fix chose queue %d from core 2", k.skb(skb).queue)
		}
	})
	m.RunAll()
	if k.Dev.TxPackets() != 1 {
		t.Fatalf("tx packets = %d", k.Dev.TxPackets())
	}
}

func TestTxCompletionFreesAndCallsBack(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TxQueues = 4
	m, k := testKernel(4, cfg)
	done := false
	m.Schedule(0, 0, func(c *sim.Ctx) {
		skb := k.AllocSKB(c, false)
		k.skb(skb).len = 64
		k.skb(skb).onTxComplete = func(cc *sim.Ctx) { done = true }
		k.Dev.DevQueueXmit(c, skb)
	})
	m.RunAll()
	if !done {
		t.Fatal("completion callback never ran")
	}
	if st := k.Alloc.StatsFor(k.SkbType); st.Live != 0 {
		t.Fatalf("skb leaked: live = %d", st.Live)
	}
}

func TestQdiscDropAtLimit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TxQueues = 1
	cfg.TxQueueLen = 2
	cfg.DrainDelay = 1 << 40 // park the drain so the queue can only fill
	m, k := testKernel(1, cfg)
	sent := 0
	m.Schedule(0, 0, func(c *sim.Ctx) {
		for i := 0; i < 4; i++ {
			skb := k.AllocSKB(c, false)
			k.skb(skb).len = 64
			if k.Dev.DevQueueXmit(c, skb) {
				sent++
			}
		}
	})
	m.Run(1 << 30) // do not run the parked drain
	if sent != 2 {
		t.Fatalf("sent = %d, want 2 (limit)", sent)
	}
	if k.Dev.Drops() != 2 {
		t.Fatalf("drops = %d, want 2", k.Dev.Drops())
	}
}

func TestRxDeliverPullsFromRing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TxQueues = 2
	cfg.RxRingSize = 8
	m, k := testKernel(2, cfg)
	m.Schedule(0, 0, func(c *sim.Ctx) {
		k.Dev.FillRxRing(c, 0)
		live := k.Alloc.StatsFor(k.SkbType).Live
		if live != 8 {
			t.Fatalf("ring prefill live = %d, want 8", live)
		}
		skb := k.Dev.RxDeliver(c, 0, 100)
		if skb.None() || k.skb(skb).len != 100 {
			t.Fatal("RxDeliver returned bad skb")
		}
		// Ring replenished: one consumed, one allocated.
		if got := k.Alloc.StatsFor(k.SkbType).Live; got != 9 {
			t.Fatalf("live after deliver = %d, want 9 (8 ring + 1 in flight)", got)
		}
		k.KfreeSKB(c, skb)
	})
	m.RunAll()
}

func TestUDPRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TxQueues = 2
	cfg.LocalTxQueue = true
	m, k := testKernel(2, cfg)
	var woke int
	responded := false
	m.Schedule(0, 0, func(c *sim.Ctx) {
		k.Dev.FillRxRing(c, 0)
		sk := k.NewUDPSock(c, 9000, 0)
		sk.Epoll.Wakeup = func(cc *sim.Ctx) { woke++ }
		skb := k.Dev.RxDeliver(c, 0, 80)
		k.UDPRcv(c, skb, 9000)
		if sk.RxQueueLen() != 1 {
			t.Fatalf("rx queue = %d", sk.RxQueueLen())
		}
		got := sk.Recvmsg(c, 64)
		if got.None() {
			t.Fatal("recvmsg returned nil")
		}
		k.KfreeSKB(c, got)
		sk.Sendmsg(c, 200, func(cc *sim.Ctx) { responded = true })
	})
	m.RunAll()
	if woke != 1 {
		t.Fatalf("wakeups = %d, want 1", woke)
	}
	if !responded {
		t.Fatal("response never completed")
	}
}

func TestUDPRcvUnknownPortDropsSkb(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TxQueues = 1
	m, k := testKernel(1, cfg)
	m.Schedule(0, 0, func(c *sim.Ctx) {
		skb := k.AllocSKB(c, false)
		k.UDPRcv(c, skb, 4242)
	})
	m.RunAll()
	if st := k.Alloc.StatsFor(k.SkbType); st.Live != 0 {
		t.Fatal("skb leaked on unknown port")
	}
}

func TestRecvmsgEmptyQueue(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TxQueues = 1
	m, k := testKernel(1, cfg)
	m.Schedule(0, 0, func(c *sim.Ctx) {
		sk := k.NewUDPSock(c, 9001, 0)
		if !sk.Recvmsg(c, 64).None() {
			t.Error("recvmsg on empty queue returned an skb")
		}
	})
	m.RunAll()
}

func TestTCPBacklogRefusal(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TxQueues = 1
	m, k := testKernel(1, cfg)
	m.Schedule(0, 0, func(c *sim.Ctx) {
		l := k.NewListener(c, 80, 0, 2)
		for i := 0; i < 4; i++ {
			skb := k.AllocSKB(c, false)
			k.skb(skb).len = 60
			l.RxSyn(c, skb)
		}
		if l.QueueLen() != 2 {
			t.Fatalf("queue = %d, want 2", l.QueueLen())
		}
		if l.Refused() != 2 {
			t.Fatalf("refused = %d, want 2", l.Refused())
		}
	})
	m.RunAll()
}

func TestTCPAcceptServesFIFO(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TxQueues = 1
	cfg.LocalTxQueue = true
	m, k := testKernel(1, cfg)
	m.Schedule(0, 0, func(c *sim.Ctx) {
		l := k.NewListener(c, 80, 0, 16)
		skb1 := k.AllocSKB(c, false)
		c1 := l.RxSyn(c, skb1)
		skb2 := k.AllocSKB(c, false)
		c2 := l.RxSyn(c, skb2)
		if got := l.Accept(c); got != c1 {
			t.Fatal("accept order not FIFO")
		}
		if got := l.Accept(c); got != c2 {
			t.Fatal("second accept wrong")
		}
		if !l.Accept(c).None() {
			t.Fatal("accept on empty queue returned a conn")
		}
		c1.ReadRequest(c, 64)
		c1.Close(c)
		c2.ReadRequest(c, 64)
		c2.Close(c)
	})
	m.RunAll()
	if st := k.Alloc.StatsFor(k.TCPSockType); st.Live != 1 { // listener only
		t.Fatalf("tcp_sock live = %d, want 1", st.Live)
	}
}

func TestTimeWaitDefersFree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TxQueues = 1
	cfg.TimeWait = 10_000
	m, k := testKernel(1, cfg)
	m.Schedule(0, 0, func(c *sim.Ctx) {
		l := k.NewListener(c, 80, 0, 4)
		skb := k.AllocSKB(c, false)
		conn := l.RxSyn(c, skb)
		l.Accept(c)
		conn.ReadRequest(c, 16)
		conn.Close(c)
		if st := k.Alloc.StatsFor(k.TCPSockType); st.Live != 2 {
			t.Fatalf("socket freed before TIME_WAIT: live = %d", st.Live)
		}
	})
	m.RunAll()
	if st := k.Alloc.StatsFor(k.TCPSockType); st.Live != 1 {
		t.Fatalf("socket not freed after TIME_WAIT: live = %d", st.Live)
	}
}

func TestDoubleClosePanics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TxQueues = 1
	m, k := testKernel(1, cfg)
	m.Schedule(0, 0, func(c *sim.Ctx) {
		l := k.NewListener(c, 80, 0, 4)
		skb := k.AllocSKB(c, false)
		conn := l.RxSyn(c, skb)
		l.Accept(c)
		conn.Close(c)
		defer func() {
			if recover() == nil {
				t.Error("double close did not panic")
			}
		}()
		conn.Close(c)
	})
	m.RunAll()
}

func TestEpollWakeOnlyOnFirstEvent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TxQueues = 2
	m, k := testKernel(2, cfg)
	wakes := 0
	ep := k.Epoll(0)
	ep.Wakeup = func(c *sim.Ctx) { wakes++ }
	m.Schedule(0, 0, func(c *sim.Ctx) {
		k.EpollWake(c, ep)
		k.EpollWake(c, ep) // ready already nonzero: no second wake
		if n := k.EpollWait(c, ep); n != 2 {
			t.Fatalf("epoll_wait drained %d, want 2", n)
		}
		k.EpollWake(c, ep) // wakes again after the drain
	})
	m.RunAll()
	if wakes != 2 {
		t.Fatalf("wakeups = %d, want 2", wakes)
	}
}

func TestFutexWakeAndWaitTouchBuckets(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TxQueues = 2
	m, k := testKernel(2, cfg)
	m.Schedule(0, 0, func(c *sim.Ctx) {
		k.Futex.Wait(c, 3)
		k.Futex.Wake(c, 3)
	})
	m.RunAll()
	if k.Locks.Class("futex lock").Acquisitions != 2 {
		t.Fatalf("futex lock acquisitions = %d, want 2", k.Locks.Class("futex lock").Acquisitions)
	}
}

func TestContextSwitchTouchesBothTasks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TxQueues = 1
	m, k := testKernel(1, cfg)
	m.Schedule(0, 0, func(c *sim.Ctx) {
		a := k.NewTask(c, "a")
		b := k.NewTask(c, "b")
		before := m.Hier.Totals().Accesses
		k.ContextSwitch(c, a, b)
		if m.Hier.Totals().Accesses-before < 8 {
			t.Error("context switch generated too little task_struct traffic")
		}
	})
	m.RunAll()
}

func TestXtimeTickInvalidatesReaders(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TxQueues = 2
	m, k := testKernel(2, cfg)
	m.Schedule(0, 0, func(c *sim.Ctx) { k.Getnstimeofday(c) })
	m.Schedule(1, 1000, func(c *sim.Ctx) { k.TickXtime(c) })
	var level string
	m.Schedule(0, 2000, func(c *sim.Ctx) {
		before := m.Hier.CoreStats(0).ForeignHits
		k.Getnstimeofday(c)
		if m.Hier.CoreStats(0).ForeignHits > before {
			level = "foreign"
		}
	})
	m.RunAll()
	if level != "foreign" {
		t.Fatal("timer write did not invalidate the reader's xtime line")
	}
}
