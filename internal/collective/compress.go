package collective

import (
	"fmt"
	"math"
	"time"

	"repro/internal/mpi"
)

// Real-communication gradient compression. The simulation side of this
// package prices the variants on the cluster model; this file runs them
// for real over the in-process MPI substrate, shaped to plug into
// horovod.Config.AllreduceFn so the engine's negotiation, fusion, and
// failure semantics stay untouched.

// Compression selects the gradient-compression variant of an allreduce.
type Compression int

const (
	// CompressNone is the exact float32 ring.
	CompressNone Compression = iota
	// CompressFP16 packs every wire payload to IEEE 754 binary16: half
	// the bytes, 11-bit significands, deterministic across replicas.
	CompressFP16
	// CompressTopK ships only the k largest-magnitude gradient elements
	// per bucket as index+value pairs, with local error feedback carrying
	// the unsent mass into the next step.
	CompressTopK
)

// String names the variant as the CLI flags and reports spell it.
func (c Compression) String() string {
	switch c {
	case CompressNone:
		return "none"
	case CompressFP16:
		return "fp16"
	case CompressTopK:
		return "topk"
	default:
		return fmt.Sprintf("compression(%d)", int(c))
	}
}

// ParseCompression parses a CLI-facing variant name.
func ParseCompression(s string) (Compression, error) {
	switch s {
	case "", "none":
		return CompressNone, nil
	case "fp16":
		return CompressFP16, nil
	case "topk":
		return CompressTopK, nil
	}
	return CompressNone, fmt.Errorf("collective: unknown compression %q (none|fp16|topk)", s)
}

// FP16Allreduce runs the fp16-compressed chunk-pipelined ring; it is a
// horovod.Config.AllreduceFn.
func FP16Allreduce(c *mpi.Comm, buf []float32) error {
	c.AllreduceSumFP16(buf)
	return nil
}

// NodeAwareAllreduce returns an AllreduceFn running the two-level
// node-aware reduction (intra-node reduce, leader ring, intra-node
// broadcast) over the communicator's topology, with an optionally
// fp16-compressed inter-node wire.
func NodeAwareAllreduce(fp16 bool) func(c *mpi.Comm, buf []float32) error {
	return func(c *mpi.Comm, buf []float32) error {
		c.AllreduceSumNodeAware(buf, fp16)
		return nil
	}
}

// TopK is one rank's top-k sparsified allreduce state: compression ratio,
// per-buffer error-feedback residuals, and reusable scratch. Create one
// per rank (NewTopK) and install its Allreduce as the engine's
// AllreduceFn; the residual map is keyed by gradient buffer identity, so
// it needs the stable per-tensor buffers an unfused engine reduces
// (fusion buffers are recycled across groups and would alias residuals).
type TopK struct {
	// Ratio keeps ⌈n/Ratio⌉ elements of an n-element bucket (DGC-style
	// fixed-rate sparsification). Ratio ≤ 1 keeps everything.
	Ratio int
	// ErrorFeedback accumulates the unsent gradient mass locally and
	// re-injects it the next time the same buffer reduces — the
	// correction that lets aggressive sparsification converge.
	ErrorFeedback bool

	resid map[residKey][]float32
	mags  []float32
	slots []float32
}

// residKey identifies a gradient buffer across steps by its backing
// array identity and length.
type residKey struct {
	ptr *float32
	n   int
}

// NewTopK returns a fresh per-rank top-k allreduce with the given
// compression ratio and error feedback enabled.
func NewTopK(ratio int) *TopK {
	return &TopK{Ratio: ratio, ErrorFeedback: true, resid: map[residKey][]float32{}}
}

// residual returns the error-feedback accumulator for buf, zero-valued
// on first sight.
func (t *TopK) residual(buf []float32) []float32 {
	key := residKey{&buf[0], len(buf)}
	r := t.resid[key]
	if r == nil {
		r = make([]float32, len(buf))
		t.resid[key] = r
	}
	return r
}

// grow returns s with at least n elements, reallocating at most once per
// high-water mark so the steady state is allocation-free.
func grow(s []float32, n int) []float32 {
	if cap(s) < n {
		return make([]float32, n)
	}
	return s[:n]
}

// Allreduce is the sparsified sum: every rank (after folding in its
// residual) selects its top-k elements, the fixed-size payloads ride a
// ring allgather on the reserved sparse tag band, and each rank decodes
// all p contributions in rank order — identical arithmetic everywhere,
// so replicas stay bit-wise in sync. Unselected mass becomes the new
// residual (or is dropped without error feedback). A malformed payload
// aborts with an error, which the engine surfaces through Err/Drain.
func (t *TopK) Allreduce(c *mpi.Comm, buf []float32) error {
	n := len(buf)
	if n == 0 {
		return nil
	}
	start := time.Now()
	p := c.Size()
	me := c.Rank()
	k := TopKCount(n, t.Ratio)
	w := TopKWords(k)

	if t.ErrorFeedback {
		resid := t.residual(buf)
		for i, r := range resid {
			buf[i] += r
		}
	}
	t.mags = grow(t.mags, n)
	t.slots = grow(t.slots, p*w)
	own := t.slots[me*w : (me+1)*w]
	EncodeTopK(own, buf, k, t.mags)
	if t.ErrorFeedback {
		resid := t.residual(buf)
		copy(resid, buf)
		for j := 0; j < k; j++ {
			resid[idxWord(own, j)] = 0
		}
	}
	clear(buf)

	// Ring allgather of the fixed-size payloads: step s forwards the
	// slot received at step s−1, so after p−1 steps every rank holds all
	// p contributions in source-rank order.
	next, prev := (me+1)%p, (me-1+p)%p
	for step := 0; step < p-1; step++ {
		send := t.slots[((me-step+p)%p)*w:][:w]
		recvRank := (me - step - 1 + p) % p
		c.Send(next, mpi.TagSparse+step, send)
		c.Recv(prev, mpi.TagSparse+step, t.slots[recvRank*w:][:w])
	}
	for r := 0; r < p; r++ {
		if _, err := DecodeTopKAdd(buf, t.slots[r*w:(r+1)*w]); err != nil {
			return fmt.Errorf("top-k allreduce: rank %d payload: %w", r, err)
		}
	}
	c.ProfileCollective("allreduce/topk", int64(w)*4, time.Since(start))
	return nil
}

// idxWord reads index word j of an encoded payload.
func idxWord(payload []float32, j int) uint32 {
	return math.Float32bits(payload[1+j])
}

// NewAllreduceFn builds the engine AllreduceFn for a variant; nil means
// "use the backend default" (exact ring), which is what the engine does
// with a nil fn. topkRatio only applies to CompressTopK.
func NewAllreduceFn(kind Compression, topkRatio int) func(c *mpi.Comm, buf []float32) error {
	switch kind {
	case CompressFP16:
		return FP16Allreduce
	case CompressTopK:
		return NewTopK(topkRatio).Allreduce
	default:
		return nil
	}
}

// NewAllreduceFnByName resolves a CLI variant name — none, fp16, topk,
// hier, hier-fp16 — to an engine AllreduceFn (nil for none). The hier
// variants run the node-aware two-level reduction and honor the world's
// SetGPUsPerNode topology.
func NewAllreduceFnByName(name string, topkRatio int) (func(c *mpi.Comm, buf []float32) error, error) {
	switch name {
	case "hier":
		return NodeAwareAllreduce(false), nil
	case "hier-fp16":
		return NodeAwareAllreduce(true), nil
	}
	kind, err := ParseCompression(name)
	if err != nil {
		return nil, err
	}
	return NewAllreduceFn(kind, topkRatio), nil
}
