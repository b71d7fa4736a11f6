package mpi

import (
	"math"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// runAllRanks executes fn on every rank of a fresh world and returns each
// rank's buffer, seeded by seed(rank, i).
func runAllRanks(t *testing.T, size, n int, seed func(rank, i int) float32, fn func(c *Comm, buf []float32)) [][]float32 {
	t.Helper()
	w := NewWorld(size)
	var mu sync.Mutex
	results := make([][]float32, size)
	if err := w.Run(func(c *Comm) {
		buf := make([]float32, n)
		for i := range buf {
			buf[i] = seed(c.Rank(), i)
		}
		fn(c, buf)
		mu.Lock()
		results[c.Rank()] = buf
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	return results
}

// TestAllreduceSumFP16Exact: small integers are exactly representable in
// binary16 and their sums stay within the exact range (≤2048), so the
// compressed ring must reproduce the exact sum bit for bit — the
// "bit-safe where promised" half of the fp16 contract.
func TestAllreduceSumFP16Exact(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 5, 8} {
		for _, n := range []int{1, 2, 13, 100, 257, 1000} {
			seed := func(rank, i int) float32 { return float32((rank+i)%17 - 8) }
			got := runAllRanks(t, size, n, seed, func(c *Comm, buf []float32) {
				c.AllreduceSumFP16(buf)
			})
			for i := 0; i < n; i++ {
				var want float32
				for r := 0; r < size; r++ {
					want += seed(r, i)
				}
				for r := 0; r < size; r++ {
					if got[r][i] != want {
						t.Fatalf("size=%d n=%d rank=%d elem=%d: got %g want %g",
							size, n, r, i, got[r][i], want)
					}
				}
			}
		}
	}
}

// TestAllreduceSumFP16QuantizedClose: on arbitrary values the compressed
// result must stay within the accumulated fp16 rounding envelope of the
// exact sum (one rounding per ring hop), and all ranks must agree
// bit-wise — replicas diverging silently is the failure mode that
// destroys data-parallel training.
func TestAllreduceSumFP16QuantizedClose(t *testing.T) {
	for _, size := range []int{2, 4, 7} {
		n := 1003
		seed := func(rank, i int) float32 {
			return float32(math.Sin(float64(rank*n+i))) * 0.1
		}
		got := runAllRanks(t, size, n, seed, func(c *Comm, buf []float32) {
			c.AllreduceSumFP16(buf)
		})
		for i := 0; i < n; i++ {
			var want float64
			for r := 0; r < size; r++ {
				want += float64(seed(r, i))
			}
			// p−1 hops each round through fp16: ≤ (p−1)·2^-11 relative on a
			// magnitude bounded by the running sum; use a generous absolute
			// bound scaled to the value range (|sum| ≤ 0.1·p).
			tol := float64(size) * 0.1 / 2048 * float64(size)
			if d := math.Abs(float64(got[0][i]) - want); d > tol {
				t.Fatalf("size=%d elem=%d: |%g - %g| = %g > %g", size, i, got[0][i], want, d, tol)
			}
			for r := 1; r < size; r++ {
				if math.Float32bits(got[r][i]) != math.Float32bits(got[0][i]) {
					t.Fatalf("size=%d elem=%d: rank %d (%#x) disagrees with rank 0 (%#x)",
						size, i, r, math.Float32bits(got[r][i]), math.Float32bits(got[0][i]))
				}
			}
		}
	}
}

// TestAllreduceSumFP16ChunkSweep exercises the pipelined sub-chunking
// boundaries (1-element sub-chunks, odd lengths, sub-chunks larger than
// ring chunks) — the same sweep the uncompressed ring is pinned by.
func TestAllreduceSumFP16ChunkSweep(t *testing.T) {
	for _, cs := range []int{1, 3, 8, 1024} {
		old := SetRingChunkElems(cs)
		for _, size := range []int{2, 3, 5} {
			for _, n := range []int{1, 13, 257} {
				seed := func(rank, i int) float32 { return float32((rank*3+i)%11 - 5) }
				got := runAllRanks(t, size, n, seed, func(c *Comm, buf []float32) {
					c.AllreduceSumFP16(buf)
				})
				for i := 0; i < n; i++ {
					var want float32
					for r := 0; r < size; r++ {
						want += seed(r, i)
					}
					if got[0][i] != want {
						t.Fatalf("cs=%d size=%d n=%d elem=%d: got %g want %g", cs, size, n, i, got[0][i], want)
					}
				}
			}
		}
		SetRingChunkElems(old)
	}
}

// TestAllreduceSumNodeAware checks the two-level design across topology
// shapes — divisible and ragged node widths, exact and fp16 inter-node
// wire — against the flat exact sum.
func TestAllreduceSumNodeAware(t *testing.T) {
	for _, fp16 := range []bool{false, true} {
		for _, tc := range []struct{ size, gs int }{
			{1, 1}, {2, 1}, {4, 2}, {4, 4}, {8, 4}, {6, 4}, {7, 3}, {8, 1},
			{8, 2}, {8, 8}, {12, 4}, {5, 2}, {4, 3},
		} {
			for _, n := range []int{1, 13, 257, 1000} {
				seed := func(rank, i int) float32 { return float32((rank+2*i)%13 - 6) }
				w := NewWorld(tc.size)
				w.SetGPUsPerNode(tc.gs)
				var mu sync.Mutex
				results := make([][]float32, tc.size)
				if err := w.Run(func(c *Comm) {
					buf := make([]float32, n)
					for i := range buf {
						buf[i] = seed(c.Rank(), i)
					}
					c.AllreduceSumNodeAware(buf, fp16)
					mu.Lock()
					results[c.Rank()] = buf
					mu.Unlock()
				}); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					var want float32
					for r := 0; r < tc.size; r++ {
						want += seed(r, i)
					}
					for r := 0; r < tc.size; r++ {
						// Small integers: exact through fp16 as well.
						if results[r][i] != want {
							t.Fatalf("fp16=%v size=%d gs=%d n=%d rank=%d elem=%d: got %g want %g",
								fp16, tc.size, tc.gs, n, r, i, results[r][i], want)
						}
					}
				}
			}
		}
	}
}

// TestCompressedAllreduceProfiled: the fp16 and node-aware variants must
// trace themselves as allreduce spans carrying the compressed wire
// payload — the message size the paper's bucket tables key on.
func TestCompressedAllreduceProfiled(t *testing.T) {
	w := NewWorld(4)
	w.SetGPUsPerNode(2)
	tr := &countingTracer{}
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Tracer = tr
		}
		buf := make([]float32, 1001)
		c.AllreduceSumFP16(buf)
		c.AllreduceSumNodeAware(buf, true)
	})
	wantBytes := int64(tensor.HalfWords(1001)) * 4
	for _, op := range []string{"allreduce/fp16", "allreduce/hier"} {
		if tr.ops[op] != 1 || tr.bytes[op] != wantBytes {
			t.Fatalf("%s: %d spans, %d bytes; want 1 span of %d bytes (compressed wire size)",
				op, tr.ops[op], tr.bytes[op], wantBytes)
		}
	}
}

// TestCompressedAllreduceZeroAlloc pins the steady-state zero-allocation
// contract of both compressed hot paths, matching the standard the
// uncompressed collectives are held to.
func TestCompressedAllreduceZeroAlloc(t *testing.T) {
	const runs = 50
	for _, variant := range []string{"fp16", "node-aware-fp16"} {
		w := NewWorld(4)
		w.SetGPUsPerNode(2)
		var got float64
		w.Run(func(c *Comm) {
			buf := make([]float32, 3001)
			iter := func() {
				if variant == "fp16" {
					c.AllreduceSumFP16(buf)
				} else {
					c.AllreduceSumNodeAware(buf, true)
				}
			}
			for i := 0; i < 3; i++ {
				iter()
			}
			if c.Rank() == 0 {
				got = testing.AllocsPerRun(runs, iter)
			} else {
				for i := 0; i < runs+1; i++ {
					iter()
				}
			}
		})
		if got != 0 {
			t.Errorf("%s: %g allocs per allreduce, want 0", variant, got)
		}
	}
}

// TestSentBytesMeter: the per-rank wire meter must count exactly the
// payload Send moves — differencing it is how the benchmark's ledger
// (mpi.wire_ratio_fp16, collective.wire_ratio_topk) and TestTopKWireBytes
// measure the compression ratio on the wire.
func TestSentBytesMeter(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 5, make([]float32, 100))
		} else {
			c.Recv(0, 5, make([]float32, 100))
		}
	})
	c0 := w.Comm(0)
	if got := c0.SentBytes(); got != 400 {
		t.Fatalf("rank 0 sent %d bytes, want 400", got)
	}
	if got := w.Comm(1).SentBytes(); got != 0 {
		t.Fatalf("rank 1 sent %d bytes, want 0", got)
	}
}

// TestSetGPUsPerNodeValidation pins the panic on nonsensical topology.
func TestSetGPUsPerNodeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for GPUs per node < 1")
		}
	}()
	NewWorld(2).SetGPUsPerNode(0)
}
