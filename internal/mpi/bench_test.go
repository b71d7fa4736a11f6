package mpi

import (
	"fmt"
	"testing"
)

// benchAllreduce measures one full allreduce across the world per
// iteration, for the given algorithm and message size.
func benchAllreduce(b *testing.B, size, elems int, algo AllreduceAlgo) {
	b.Helper()
	w := NewWorld(size)
	b.SetBytes(int64(elems) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Run(func(c *Comm) {
			buf := make([]float32, elems)
			for j := range buf {
				buf[j] = float32(c.Rank())
			}
			c.AllreduceSum(buf, algo)
		})
	}
}

func BenchmarkAllreduceAlgorithms(b *testing.B) {
	for _, algo := range []AllreduceAlgo{AlgoRing, AlgoRecursiveDoubling, AlgoNaive} {
		for _, elems := range []int{64, 65536} {
			b.Run(fmt.Sprintf("%v/%delems", algo, elems), func(b *testing.B) {
				benchAllreduce(b, 8, elems, algo)
			})
		}
	}
}

func BenchmarkAllreduceSumNodeAware(b *testing.B) {
	w := NewWorld(8)
	w.SetGPUsPerNode(4)
	b.SetBytes(65536 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Run(func(c *Comm) {
			buf := make([]float32, 65536)
			c.AllreduceSumNodeAware(buf, false)
		})
	}
}

func BenchmarkBcast(b *testing.B) {
	w := NewWorld(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Run(func(c *Comm) {
			buf := make([]float32, 16384)
			c.Bcast(buf, 0)
		})
	}
}

func BenchmarkSendRecvLatency(b *testing.B) {
	w := NewWorld(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Run(func(c *Comm) {
			buf := []float32{1}
			if c.Rank() == 0 {
				c.Send(1, 1, buf)
				c.Recv(1, 2, buf)
			} else {
				c.Recv(0, 1, buf)
				c.Send(0, 2, buf)
			}
		})
	}
}
