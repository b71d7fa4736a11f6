package collective

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/mpi"
	"repro/internal/tensor"
)

// refTopK computes the reference selection: indices of the k
// largest-magnitude elements, magnitude ties broken toward lower
// indices, returned ascending.
func refTopK(g []float32, k int) []int {
	idx := make([]int, len(g))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return sanMag(g[idx[a]]) > sanMag(g[idx[b]])
	})
	sel := append([]int(nil), idx[:k]...)
	sort.Ints(sel)
	return sel
}

// eqBits compares float32 values bit-wise, with any NaN matching any
// NaN (payload copies may requantize NaN payloads on exotic FPUs).
func eqBits(a, b float32) bool {
	if a != a && b != b {
		return true
	}
	return math.Float32bits(a) == math.Float32bits(b)
}

// TestTopKCodecRoundTrip pins the codec against a reference selection:
// decode(encode(g)) reproduces exactly the top-k indices and values, and
// touches nothing else.
func TestTopKCodecRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(3)
	for _, n := range []int{1, 2, 5, 17, 100, 1001} {
		for _, k := range []int{0, 1, 2, n / 3, n - 1, n} {
			if k < 0 || k > n {
				continue
			}
			g := make([]float32, n)
			for i := range g {
				g[i] = (rng.Float32() - 0.5) * 10
			}
			wire := make([]float32, TopKWords(k))
			EncodeTopK(wire, g, k, nil)
			out := make([]float32, n)
			got, err := DecodeTopKAdd(out, wire)
			if err != nil {
				t.Fatalf("n=%d k=%d: decode: %v", n, k, err)
			}
			if got != k {
				t.Fatalf("n=%d k=%d: decoded %d elements", n, k, got)
			}
			want := refTopK(g, k)
			sel := map[int]bool{}
			for _, i := range want {
				sel[i] = true
			}
			for i := range out {
				if sel[i] && !eqBits(out[i], g[i]) {
					t.Fatalf("n=%d k=%d: selected elem %d: got %v want %v", n, k, i, out[i], g[i])
				}
				if !sel[i] && out[i] != 0 {
					t.Fatalf("n=%d k=%d: unselected elem %d leaked %v", n, k, i, out[i])
				}
			}
		}
	}
}

// TestTopKCodecTies: equal magnitudes must resolve toward lower indices
// identically on every rank — a rank-dependent tie-break would desync
// the replicas' selections and their error-feedback residuals.
func TestTopKCodecTies(t *testing.T) {
	g := []float32{2, -2, 2, 1, -2, 2}
	wire := make([]float32, TopKWords(3))
	EncodeTopK(wire, g, 3, nil)
	out := make([]float32, len(g))
	if _, err := DecodeTopKAdd(out, wire); err != nil {
		t.Fatal(err)
	}
	want := []float32{2, -2, 2, 0, 0, 0}
	for i := range out {
		if out[i] != want[i] {
			t.Fatalf("elem %d: got %v want %v (tie-break must favor low indices)", i, out, want)
		}
	}
}

// TestTopKCodecTiesBelowLargerValues: ties at the threshold sit at low
// indices and the larger values at high ones, so the encoder must emit
// indices that are not in selection order still ascending and identical
// to the sort-based reference.
func TestTopKCodecTiesBelowLargerValues(t *testing.T) {
	const n = 1000
	g := make([]float32, n)
	for i := range g {
		g[i] = float32(i%7) - 3 // magnitudes 0..3, tied in long runs
		if i >= n-100 {
			g[i] = float32(10 + i%5)
		}
	}
	for _, k := range []int{50, 100, 101, 150, 400, 999} {
		wire := make([]float32, TopKWords(k))
		EncodeTopK(wire, g, k, nil)
		want := refTopK(g, k)
		if got := int(math.Float32bits(wire[0])); got != k {
			t.Fatalf("k=%d: count word %d", k, got)
		}
		for j, i := range want {
			if got := int(math.Float32bits(wire[1+j])); got != i {
				t.Fatalf("k=%d: index word %d is %d, reference %d", k, j, got, i)
			}
			if !eqBits(wire[1+k+j], g[i]) {
				t.Fatalf("k=%d: value word %d is %v, want g[%d]=%v", k, j, wire[1+k+j], i, g[i])
			}
		}
	}
}

// TestTopKErrorFeedbackTiedReplay replays the tied gradient i%7 through
// six error-feedback passes at p = 4, ratio 32, 8 MB per rank. Folding
// the residual back in leaves tens of thousands of threshold ties beside
// tens of thousands of larger values; every rank's payload must still be
// a valid top-k with ties broken toward low indices, and no mass may be
// lost: what the passes reduced plus what the residuals still hold is
// what the ranks contributed.
func TestTopKErrorFeedbackTiedReplay(t *testing.T) {
	const p, n, ratio, passes = 4, 2 << 20, 32, 6
	k := TopKCount(n, ratio)
	reduced := make([][]float64, p)
	w := mpi.NewWorld(p)
	if err := w.Run(func(c *mpi.Comm) {
		tk := NewTopK(ratio)
		buf := make([]float32, n)
		folded := make([]float32, n)
		sum := make([]float64, n)
		for pass := 0; pass < passes; pass++ {
			resid := tk.residual(buf)
			for i := range buf {
				buf[i] = float32(i % 7)
				folded[i] = buf[i] + resid[i]
			}
			if err := tk.Allreduce(c, buf); err != nil {
				t.Error(err)
				return
			}
			me := TopKWords(k) * c.Rank()
			if err := validTopK(folded, tk.slots[me:me+TopKWords(k)], k); err != nil {
				t.Errorf("rank %d pass %d: %v", c.Rank(), pass, err)
				return
			}
			for i, v := range buf {
				sum[i] += float64(v)
			}
		}
		for i, r := range tk.residual(buf) {
			sum[i] += float64(r) * p // every rank holds its own, identical residual
		}
		reduced[c.Rank()] = sum
	}); err != nil {
		t.Fatal(err)
	}
	for r := range reduced {
		for i, v := range reduced[r] {
			if want := float64(p * passes * (i % 7)); v != want {
				t.Fatalf("rank %d elem %d: reduced plus residual %v, contributed %v", r, i, v, want)
			}
		}
	}
}

// validTopK checks payload against the definition of the selection, in
// one pass over g: k ascending indices whose magnitudes are all at least
// every unselected magnitude, and at the smallest selected magnitude no
// unselected index below a selected one.
func validTopK(g, payload []float32, k int) error {
	if s := int(math.Float32bits(payload[0])); s != k {
		return fmt.Errorf("count %d, want %d", s, k)
	}
	sel := make([]bool, len(g))
	thresh := float32(math.Inf(1))
	for j := 0; j < k; j++ {
		i := math.Float32bits(payload[1+j])
		if j > 0 && i <= math.Float32bits(payload[j]) {
			return fmt.Errorf("index word %d not ascending", j)
		}
		if !eqBits(payload[1+k+j], g[i]) {
			return fmt.Errorf("value word %d is %v, want g[%d]=%v", j, payload[1+k+j], i, g[i])
		}
		sel[i] = true
		thresh = min(thresh, sanMag(g[i]))
	}
	lastTie := -1
	for i, v := range g {
		switch m := sanMag(v); {
		case sel[i] && m == thresh:
			lastTie = i
		case !sel[i] && m > thresh:
			return fmt.Errorf("unselected elem %d has magnitude %v above the threshold %v", i, m, thresh)
		}
	}
	for i := 0; i < lastTie; i++ {
		if !sel[i] && sanMag(g[i]) == thresh {
			return fmt.Errorf("tie at %d unselected below selected tie %d", i, lastTie)
		}
	}
	return nil
}

// TestTopKCountPins the k schedule: ⌈n/ratio⌉ clamped to [1, n].
func TestTopKCount(t *testing.T) {
	cases := []struct{ n, ratio, want int }{
		{0, 32, 0}, {1, 32, 1}, {31, 32, 1}, {32, 32, 1}, {33, 32, 2},
		{1000, 32, 32}, {1000, 1, 1000}, {1000, 0, 1000}, {5, 100, 1},
	}
	for _, c := range cases {
		if got := TopKCount(c.n, c.ratio); got != c.want {
			t.Fatalf("TopKCount(%d,%d) = %d, want %d", c.n, c.ratio, got, c.want)
		}
	}
}

// TestDecodeTopKAddRejects pins the validation surface: every malformed
// shape errors out cleanly and leaves the output untouched.
func TestDecodeTopKAddRejects(t *testing.T) {
	mk := func(count uint32, words ...uint32) []float32 {
		p := []float32{math.Float32frombits(count)}
		for _, w := range words {
			p = append(p, math.Float32frombits(w))
		}
		return p
	}
	out := make([]float32, 4)
	cases := map[string][]float32{
		"empty":           {},
		"count>payload":   mk(3, 1, 2),
		"count>out":       append(mk(5, 0, 1, 2, 3), make([]float32, 7)...),
		"index-range":     append(mk(1, 9), 1),
		"index-unordered": append(mk(2, 2, 1), 1, 1),
		"index-repeat":    append(mk(2, 1, 1), 1, 1),
	}
	for name, payload := range cases {
		if _, err := DecodeTopKAdd(out, payload); err == nil {
			t.Fatalf("%s: expected error", name)
		}
		for i, v := range out {
			if v != 0 {
				t.Fatalf("%s: rejected payload mutated out[%d]=%v", name, i, v)
			}
		}
	}
}

// FuzzTopKEncodeDecode is the wire-robustness gate from the issue: for
// arbitrary gradients, decode(encode(g)) preserves the selected
// indices/values exactly; and the decoder never panics on truncated or
// arbitrary payloads.
func FuzzTopKEncodeDecode(f *testing.F) {
	f.Add([]byte{0, 0, 128, 63, 0, 0, 0, 64, 0, 0, 64, 64})
	f.Add([]byte{255, 255, 255, 255, 1, 2, 3, 4})
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Interpret the input as a little-endian float32 gradient.
		n := len(data) / 4
		g := make([]float32, n)
		for i := 0; i < n; i++ {
			bits := uint32(data[4*i]) | uint32(data[4*i+1])<<8 |
				uint32(data[4*i+2])<<16 | uint32(data[4*i+3])<<24
			g[i] = math.Float32frombits(bits)
		}
		if n > 0 {
			k := 1 + int(data[0])%n
			wire := make([]float32, TopKWords(k))
			EncodeTopK(wire, g, k, nil)
			out := make([]float32, n)
			s, err := DecodeTopKAdd(out, wire)
			if err != nil {
				t.Fatalf("decode of own encoding failed: %v", err)
			}
			if s != k {
				t.Fatalf("encoded k=%d, decoded %d", k, s)
			}
			for j := 0; j < s; j++ {
				idx := math.Float32bits(wire[1+j])
				// The decoder adds into out's zeros, and 0 + −0 is +0.
				var zero float32
				if want := zero + g[idx]; !eqBits(out[idx], want) {
					t.Fatalf("selected elem %d: %v != %v", idx, out[idx], want)
				}
			}
			// Truncations of a valid payload must error, never panic.
			for cut := 0; cut < len(wire); cut++ {
				if _, err := DecodeTopKAdd(out, wire[:cut]); err == nil && cut < 1+2*s {
					t.Fatalf("truncated payload (%d of %d words) accepted", cut, len(wire))
				}
			}
		}
		// Arbitrary bytes as a payload: any outcome but a panic.
		DecodeTopKAdd(make([]float32, 8), g)
	})
}
