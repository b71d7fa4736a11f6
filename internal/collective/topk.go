package collective

import (
	"fmt"
	"math"
)

// Top-k sparsification codec (deep gradient compression): a gradient
// vector is reduced to its k largest-magnitude elements, shipped as an
// index+value payload riding the float32 transport. The wire layout, in
// float32 words, is
//
//	word 0        count s (uint32 bits), s ≤ k
//	words 1..s    element indices (uint32 bits), strictly ascending
//	words s+1..2s values (float32)
//
// Encoders always emit TopKWords(k) words so ring relays can use
// fixed-size receives; when fewer than k finite elements exist the tail
// beyond 2s+1 is zero. Decoders trust nothing: count, bounds, and
// ordering are validated so a truncated or corrupted payload surfaces as
// an error, never a panic or silent corruption.

// TopKWords returns the wire size, in float32 words, of a top-k payload
// for k selected elements.
func TopKWords(k int) int { return 1 + 2*k }

// TopKCount returns the number of elements kept from an n-element
// gradient at the given compression ratio: ⌈n/ratio⌉, at least 1, at
// most n. Ratio ≤ 1 keeps everything.
func TopKCount(n, ratio int) int {
	if n == 0 {
		return 0
	}
	if ratio <= 1 {
		return n
	}
	k := (n + ratio - 1) / ratio
	if k < 1 {
		k = 1
	}
	return k
}

// sanMag is the selection magnitude of a value: |v|, with NaN mapped
// below every real magnitude so quickselect stays total-ordered and
// deterministic, and NaNs are only ever selected after all finite
// elements.
func sanMag(v float32) float32 {
	if v != v {
		return -1
	}
	return float32(math.Abs(float64(v)))
}

// EncodeTopK writes the k largest-magnitude elements of g into dst,
// which must have exactly TopKWords(k) elements; ties on magnitude break
// toward lower indices, so every rank of a replicated run selects the
// identical set. mags is selection scratch of at least len(g) elements
// (nil allocates). k must be in [0, len(g)].
func EncodeTopK(dst, g []float32, k int, mags []float32) {
	if k < 0 || k > len(g) {
		panic(fmt.Sprintf("collective: EncodeTopK k=%d out of range [0,%d]", k, len(g)))
	}
	if len(dst) != TopKWords(k) {
		panic(fmt.Sprintf("collective: EncodeTopK dst has %d words, want %d", len(dst), TopKWords(k)))
	}
	if k == 0 {
		dst[0] = 0
		return
	}
	if mags == nil {
		mags = make([]float32, len(g))
	}
	mags = mags[:len(g)]
	for i, v := range g {
		mags[i] = sanMag(v)
	}
	var thresh float32 = -1
	if k > 0 && k < len(g) {
		thresh = quickselectDesc(mags, k-1)
	} else if k == len(g) {
		// Keep everything: any threshold below the sanitized floor works.
		thresh = -2
	}
	// One ascending pass takes every index strictly above the threshold
	// and the first k−above at it, so the index words come out sorted.
	// NaNs (mapped to −1) are only reachable when the threshold itself
	// is −1.
	above := 0
	for _, m := range mags {
		if m > thresh {
			above++
		}
	}
	ties, s := k-above, 0
	for i, v := range g {
		m := sanMag(v)
		if m > thresh || (m == thresh && ties > 0) {
			if m == thresh {
				ties--
			}
			dst[1+s] = math.Float32frombits(uint32(i))
			s++
		}
	}
	dst[0] = math.Float32frombits(uint32(s))
	for j := 0; j < s; j++ {
		dst[1+s+j] = g[math.Float32bits(dst[1+j])]
	}
	for j := 1 + 2*s; j < len(dst); j++ {
		dst[j] = 0
	}
}

// quickselectDesc partially orders mags (descending) so that index nth
// holds the value a full descending sort would place there, and returns
// it. Hoare-style partitioning with median-of-three pivots; mags must be
// NaN-free (see sanMag).
func quickselectDesc(mags []float32, nth int) float32 {
	lo, hi := 0, len(mags)-1
	for lo < hi {
		// Median-of-three pivot, deterministic.
		mid := lo + (hi-lo)/2
		if mags[mid] > mags[lo] {
			mags[mid], mags[lo] = mags[lo], mags[mid]
		}
		if mags[hi] > mags[lo] {
			mags[hi], mags[lo] = mags[lo], mags[hi]
		}
		if mags[hi] > mags[mid] {
			mags[hi], mags[mid] = mags[mid], mags[hi]
		}
		pivot := mags[mid]
		i, j := lo, hi
		for i <= j {
			for mags[i] > pivot {
				i++
			}
			for mags[j] < pivot {
				j--
			}
			if i <= j {
				mags[i], mags[j] = mags[j], mags[i]
				i++
				j--
			}
		}
		if nth <= j {
			hi = j
		} else if nth >= i {
			lo = i
		} else {
			break
		}
	}
	return mags[nth]
}

// DecodeTopKAdd validates payload and accumulates its sparse elements
// into out (out[idx] += val for each pair). It returns the number of
// elements decoded. Malformed input — truncated payloads, counts that
// exceed the payload or out, out-of-range or non-ascending indices —
// returns an error and leaves out untouched; decoders never panic on
// wire data.
func DecodeTopKAdd(out, payload []float32) (int, error) {
	if len(payload) == 0 {
		return 0, fmt.Errorf("collective: empty top-k payload")
	}
	s := math.Float32bits(payload[0])
	if uint64(s) > uint64((len(payload)-1)/2) {
		return 0, fmt.Errorf("collective: top-k count %d exceeds payload of %d words", s, len(payload))
	}
	if uint64(s) > uint64(len(out)) {
		return 0, fmt.Errorf("collective: top-k count %d exceeds output length %d", s, len(out))
	}
	n := int(s)
	prev := -1
	for j := 0; j < n; j++ {
		idx := math.Float32bits(payload[1+j])
		if uint64(idx) >= uint64(len(out)) {
			return 0, fmt.Errorf("collective: top-k index %d out of range [0,%d)", idx, len(out))
		}
		if int(idx) <= prev {
			return 0, fmt.Errorf("collective: top-k indices not strictly ascending at word %d", j)
		}
		prev = int(idx)
	}
	for j := 0; j < n; j++ {
		out[math.Float32bits(payload[1+j])] += payload[1+n+j]
	}
	return n, nil
}
