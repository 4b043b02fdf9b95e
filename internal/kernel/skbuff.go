package kernel

import (
	"dprof/internal/sim"
)

// Field offsets within the skbuff structure. The values do not matter beyond
// being stable and distinct; DProf's path traces report them.
const (
	SkbOffLen   = 0
	SkbOffData  = 8
	SkbOffNext  = 16
	SkbOffQueue = 24
	SkbOffProto = 32
	SkbOffDev   = 40
	SkbOffCB    = 48
	SkbOffDMA   = 64
)

// SKB is a handle on a simulated sk_buff in the kernel's packet arena: a
// slot index. The zero SKB names no packet.
type SKB struct{ i int32 }

// None reports whether s names no packet.
func (s SKB) None() bool { return s.i == 0 }

// skbuff is one packet arena slot: a small bookkeeping object (type skbuff or
// skbuff_fclone) plus a separately allocated payload buffer (type
// size-1024). A free slot is zero.
type skbuff struct {
	addr uint64 // skbuff object base
	data uint64 // payload object base
	len  uint32 // bytes of payload in use

	queue int // TX queue_mapping

	// onTxComplete, if set, runs on the TX-completion core after the NIC
	// reports the packet sent (and after the skb is freed).
	onTxComplete func(*sim.Ctx)
}

// skb returns s's arena slot. The pointer is valid until the next AllocSKB,
// which may grow the arena.
func (k *Kernel) skb(s SKB) *skbuff { return &k.skbs[s.i] }

// AllocSKB allocates an skb (fclone selects the TCP transmit variant) and its
// payload buffer, performing the __alloc_skb accesses.
func (k *Kernel) AllocSKB(c *sim.Ctx, fclone bool) SKB {
	defer c.Leave(c.EnterPC(pcAllocSkb))
	t := k.SkbType
	if fclone {
		t = k.FcloneType
	}
	addr := k.Alloc.Alloc(c, t)
	data := k.Alloc.Alloc(c, k.PayloadType)
	// Initialize the head of the skb and link the payload.
	c.Write(addr, 64)
	c.Write(addr+SkbOffData, 8)
	var s SKB
	if n := len(k.skbFree); n > 0 {
		s.i, k.skbFree = k.skbFree[n-1], k.skbFree[:n-1]
	} else {
		s.i = int32(len(k.skbs))
		k.skbs = append(k.skbs, skbuff{})
	}
	*k.skb(s) = skbuff{addr: addr, data: data}
	return s
}

// SkbPut reserves n payload bytes, updating the length bookkeeping.
func (k *Kernel) SkbPut(c *sim.Ctx, s SKB, n uint32) {
	defer c.Leave(c.EnterPC(pcSkbPut))
	p := k.skb(s)
	c.Read(p.addr+SkbOffLen, 8)
	c.Write(p.addr+SkbOffLen, 8)
	p.len += n
}

// KfreeSKB frees the payload (kfree: it came from the size-1024 kmalloc pool)
// and then the skbuff itself (__kfree_skb -> kmem_cache_free), and zeroes
// the arena slot so that it keeps nothing alive.
func (k *Kernel) KfreeSKB(c *sim.Ctx, s SKB) {
	defer c.Leave(c.EnterPC(pcKfreeSkb))
	p := k.skb(s)
	c.Read(p.addr, 16)
	c.Read(p.addr+SkbOffData, 8)
	func() {
		defer c.Leave(c.EnterPC(pcKfree))
		// kfree inspects the payload's page/slab linkage before handing
		// the object back to its pool.
		c.Read(p.data, 16)
		k.Alloc.Free(c, p.data)
	}()
	k.Alloc.Free(c, p.addr)
	*p = skbuff{}
	k.skbFree = append(k.skbFree, s.i)
}

// DevKfreeSKBIrq is the interrupt-context free used by TX completion.
func (k *Kernel) DevKfreeSKBIrq(c *sim.Ctx, s SKB) {
	defer c.Leave(c.EnterPC(pcDevKfreeSkbIrq))
	k.KfreeSKB(c, s)
}

// SkbCopyDatagramIovec copies n payload bytes to "user space" (the read side
// of recvmsg): a streaming read of the payload.
func (k *Kernel) SkbCopyDatagramIovec(c *sim.Ctx, s SKB, n uint32) {
	defer c.Leave(c.EnterPC(pcSkbCopyDatagramIovec))
	p := k.skb(s)
	if n > p.len {
		n = p.len
	}
	func() {
		defer c.Leave(c.EnterPC(pcCopyUserGenericString))
		c.Read(p.data, n)
	}()
	c.Compute(uint64(n) / 8)
}

// CopyToPayload copies n bytes into the payload from "user space" (the write
// side of sendmsg) starting at byte off.
func (k *Kernel) CopyToPayload(c *sim.Ctx, s SKB, off uint64, n uint32) {
	defer c.Leave(c.EnterPC(pcCopyUserGenericString))
	c.Write(k.skb(s).data+off, n)
	c.Compute(uint64(n) / 8)
}
