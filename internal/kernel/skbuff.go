package kernel

import (
	"dprof/internal/mem"
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

// SKB is a simulated sk_buff: a small bookkeeping object (type skbuff or
// skbuff_fclone) plus a separately allocated payload buffer (type size-1024).
type SKB struct {
	Addr uint64 // skbuff object base
	Data uint64 // payload object base
	Len  uint32 // bytes of payload in use
	Type *mem.Type

	Queue int // TX queue_mapping

	// OnTxComplete, if set, runs on the TX-completion core after the NIC
	// reports the packet sent (and before the skb is freed).
	OnTxComplete func(*sim.Ctx)
}

// AllocSKB allocates an skb (fclone selects the TCP transmit variant) and its
// payload buffer, performing the __alloc_skb accesses.
func (k *Kernel) AllocSKB(c *sim.Ctx, fclone bool) *SKB {
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
	k.liveSKBs++
	return &SKB{Addr: addr, Data: data, Type: t}
}

// SkbPut reserves n payload bytes, updating the length bookkeeping.
func (k *Kernel) SkbPut(c *sim.Ctx, skb *SKB, n uint32) {
	defer c.Leave(c.EnterPC(pcSkbPut))
	c.Read(skb.Addr+SkbOffLen, 8)
	c.Write(skb.Addr+SkbOffLen, 8)
	skb.Len += n
}

// KfreeSKB frees the payload (kfree: it came from the size-1024 kmalloc pool)
// and then the skbuff itself (__kfree_skb -> kmem_cache_free).
func (k *Kernel) KfreeSKB(c *sim.Ctx, skb *SKB) {
	defer c.Leave(c.EnterPC(pcKfreeSkb))
	c.Read(skb.Addr, 16)
	c.Read(skb.Addr+SkbOffData, 8)
	func() {
		defer c.Leave(c.EnterPC(pcKfree))
		// kfree inspects the payload's page/slab linkage before handing
		// the object back to its pool.
		c.Read(skb.Data, 16)
		k.Alloc.Free(c, skb.Data)
	}()
	k.Alloc.Free(c, skb.Addr)
	k.liveSKBs--
}

// DevKfreeSKBIrq is the interrupt-context free used by TX completion.
func (k *Kernel) DevKfreeSKBIrq(c *sim.Ctx, skb *SKB) {
	defer c.Leave(c.EnterPC(pcDevKfreeSkbIrq))
	k.KfreeSKB(c, skb)
}

// SkbCopyDatagramIovec copies n payload bytes to "user space" (the read side
// of recvmsg): a streaming read of the payload.
func (k *Kernel) SkbCopyDatagramIovec(c *sim.Ctx, skb *SKB, n uint32) {
	defer c.Leave(c.EnterPC(pcSkbCopyDatagramIovec))
	if n > skb.Len {
		n = skb.Len
	}
	func() {
		defer c.Leave(c.EnterPC(pcCopyUserGenericString))
		c.Read(skb.Data, n)
	}()
	c.Compute(uint64(n) / 8)
}

// CopyToPayload copies n bytes into the payload from "user space" (the write
// side of sendmsg) starting at byte off.
func (k *Kernel) CopyToPayload(c *sim.Ctx, skb *SKB, off uint64, n uint32) {
	defer c.Leave(c.EnterPC(pcCopyUserGenericString))
	c.Write(skb.Data+off, n)
	c.Compute(uint64(n) / 8)
}
