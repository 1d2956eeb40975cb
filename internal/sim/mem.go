package sim

import (
	"fmt"
	"math/rand"
	"unsafe"
)

// Sizes of the scratch building blocks, taken from the compiler so the
// report tracks the real structs. The memory report is bookkeeping over
// slice capacities — it never calls the runtime allocator profiler, so
// enabling it cannot perturb a run.
var (
	eventBytes       = int64(unsafe.Sizeof(event{}))
	deliveryBytes    = int64(unsafe.Sizeof(Delivery{}))
	sliceHeaderBytes = int64(unsafe.Sizeof([]event(nil)))
	ctxBytes         = int64(unsafe.Sizeof(coreCtx{}))
	programBytes     = int64(unsafe.Sizeof(Program(nil)))
	// pcgBytes and randWrapBytes are the two RNG SoA element sizes: node
	// v's generator is rngs[v] (16 bytes of PCG state) plus rands[v] (the
	// rand.Rand wrapper binding the stdlib API to it). Both are flat
	// arrays, so — unlike the old per-node lagged-Fibonacci estimate this
	// replaced — the report measures the real backing storage exactly.
	pcgBytes      = int64(unsafe.Sizeof(PCG{}))
	randWrapBytes = int64(unsafe.Sizeof(rand.Rand{}))
)

// MemReport is the peak scratch footprint of one asynchronous run, by
// subsystem, in bytes. All figures are capacities of the engine's backing
// arrays at the end of the run; backing arrays only grow during a run, so
// end-of-run capacity is the peak. With a reused AsyncEngine the scratch
// carries over, so the report describes the engine's high-water mark, which
// is what capacity planning needs.
//
// The report answers the practical 10⁶-node question — "what does one more
// node or edge cost?": Queue, Payload and Nodes scale with n (and the
// in-flight event population), FIFO and CSR with the directed edge count
// 2m, RNG with n at a flat 64 bytes per node (16 bytes of PCG state plus
// the rand.Rand wrapper — see DESIGN.md "Node randomness"; before the
// compact source this was ~4.8 KiB per woken node and 96 % of a
// million-node run).
type MemReport struct {
	// QueueBytes is the event queue's backing storage: the heap array.
	// Queued events are 24-byte keys; the deliveries they carry are
	// counted in PayloadBytes.
	QueueBytes int64
	// PayloadBytes is the payload slab holding the Delivery of every
	// pending delivery event, plus its free list of slot indices (summed
	// over cores in a sharded run).
	PayloadBytes int64
	// FIFOBytes covers the per-directed-edge FIFO clamp and message
	// sequence arrays.
	FIFOBytes int64
	// RNGBytes covers the per-node random generators: the flat PCG state
	// array plus the rand.Rand wrapper array (grown to the engine's
	// high-water node count, retained across runs of a reused engine).
	RNGBytes int64
	// CSRBytes covers the Setup's edge metadata: EdgeStart, EdgeTo,
	// RevPort, and SenderIDs.
	CSRBytes int64
	// NodeBytes covers the remaining per-node tables: awake flags, machine
	// slots, and the context table.
	NodeBytes int64
	// Shards is the number of partitions the run executed on; 0 or 1 means
	// the sequential engine (or the sharded engine's sequential fallback),
	// in which case OutboxBytes is zero. QueueBytes then sums the per-shard
	// queues — P small queues, not one large one.
	Shards int `json:",omitempty"`
	// OutboxBytes covers the sharded engine's cross-window plumbing: the
	// per-core staged outboxes, deferred observer records, and per-shard
	// inboxes. Like every other figure it is end-of-run capacity, i.e. the
	// high-water mark across all windows.
	OutboxBytes int64 `json:",omitempty"`
	// TotalBytes is the sum of the subsystem figures.
	TotalBytes int64
}

// String renders a compact single-line summary.
func (m *MemReport) String() string {
	s := fmt.Sprintf("mem: total=%s queue=%s payload=%s fifo=%s rng=%s csr=%s nodes=%s",
		FormatBytes(m.TotalBytes), FormatBytes(m.QueueBytes), FormatBytes(m.PayloadBytes), FormatBytes(m.FIFOBytes),
		FormatBytes(m.RNGBytes), FormatBytes(m.CSRBytes), FormatBytes(m.NodeBytes))
	if m.Shards > 1 {
		s += fmt.Sprintf(" shards=%d outbox=%s", m.Shards, FormatBytes(m.OutboxBytes))
	}
	return s
}

// FormatBytes renders a byte count with a binary unit suffix.
func FormatBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// memReport assembles the per-subsystem scratch accounting over the shared
// run state; queueBytes and payloadBytes are the (possibly per-shard
// summed) event-queue and payload-slab figures supplied by the owning
// engine.
func (r *runShared) memReport(queueBytes, payloadBytes int64) *MemReport {
	s := r.s
	m := &MemReport{
		QueueBytes:   queueBytes,
		PayloadBytes: payloadBytes,
		FIFOBytes:    int64(cap(r.fifoLast))*8 + int64(cap(r.edgeSeq))*4,
		RNGBytes:     int64(cap(r.rngs))*pcgBytes + int64(cap(r.rands))*randWrapBytes,
		CSRBytes: int64(len(s.EdgeStart))*4 + int64(len(s.EdgeTo))*4 +
			int64(len(s.RevPort))*4 + int64(len(s.SenderIDs))*8,
		NodeBytes: int64(cap(r.awake)) + int64(cap(r.seeded)) + int64(cap(r.machines))*programBytes +
			int64(cap(r.ctxs))*ctxBytes,
	}
	m.TotalBytes = m.QueueBytes + m.PayloadBytes + m.FIFOBytes + m.RNGBytes + m.CSRBytes + m.NodeBytes
	return m
}

// memBytes reports the core's event-queue storage and its payload slab
// plus free list.
func (c *engineCore) memBytes() (queue, payload int64) {
	return c.queue.memBytes(), int64(cap(c.slab))*deliveryBytes + int64(cap(c.free))*4
}

// memReport assembles the sequential engine's end-of-run accounting.
func (e *AsyncEngine) memReport() *MemReport {
	queue, payload := e.core.memBytes()
	return e.run.memReport(queue, payload)
}

// memReport assembles the sharded engine's end-of-run accounting: the
// per-core queues and slabs sum into QueueBytes and PayloadBytes, and the
// staging machinery — outboxes, observer records, inboxes, and the
// partition tables — lands in OutboxBytes, so `sweep -mem` stays truthful
// about what -shards adds.
func (e *ShardedEngine) memReport() *MemReport {
	var queueBytes, payloadBytes, outbox int64
	for i := range e.cores {
		c := &e.cores[i]
		queue, payload := c.memBytes()
		queueBytes += queue
		payloadBytes += payload
		outbox += int64(cap(c.staged))*stagedBytes + int64(cap(c.rec))*recBytes
	}
	for _, in := range e.inboxes {
		outbox += int64(cap(in)) * heldBytes
	}
	if p := e.part; p != nil {
		outbox += int64(cap(p.Bounds))*4 + int64(cap(p.NodeShard)) + int64(cap(p.EdgeShard))
	}
	m := e.run.memReport(queueBytes, payloadBytes)
	m.Shards = len(e.cores)
	m.OutboxBytes = outbox
	m.TotalBytes += outbox
	return m
}

var (
	stagedBytes = int64(unsafe.Sizeof(stagedSend{}))
	recBytes    = int64(unsafe.Sizeof(obsRecord{}))
	heldBytes   = int64(unsafe.Sizeof(heldEvent{}))
)
