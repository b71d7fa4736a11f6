package tensor

import (
	"runtime"
	"sync"
)

// maxWorkers bounds the parallelism of tensor kernels. Training code may
// run several model replicas concurrently (one per simulated rank), so
// each kernel keeps its worker count modest.
var maxWorkers = runtime.GOMAXPROCS(0)

// SetMaxWorkers overrides the kernel parallelism (n < 1 resets to
// GOMAXPROCS). It returns the previous value.
func SetMaxWorkers(n int) int {
	prev := maxWorkers
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	maxWorkers = n
	return prev
}

// WorkerCount reports how many workers ParallelWorkers would use for n
// items at the given grain: at most maxWorkers, at most one worker per
// minPerWorker items, never less than 1 for non-empty ranges, and 0 for
// n <= 0.
func WorkerCount(n, minPerWorker int) int {
	if n <= 0 {
		return 0
	}
	if minPerWorker < 1 {
		minPerWorker = 1
	}
	w := maxWorkers
	if byGrain := n / minPerWorker; w > byGrain {
		w = byGrain
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ParallelWorkers splits [0, n) into WorkerCount(n, minPerWorker)
// contiguous ranges and runs f(worker, lo, hi) for each, concurrently when
// more than one worker is used. Worker indices are dense in [0, workers),
// so callers can pre-size per-worker scratch with WorkerCount and index it
// race-free. With a single worker f runs inline on the calling goroutine.
func ParallelWorkers(n, minPerWorker int, f func(worker, lo, hi int)) {
	workers := WorkerCount(n, minPerWorker)
	switch workers {
	case 0:
		return
	case 1:
		f(0, 0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	worker := 0
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(worker, lo, hi int) {
			defer wg.Done()
			f(worker, lo, hi)
		}(worker, lo, hi)
		worker++
	}
	wg.Wait()
}

// parallelFor runs f(lo, hi) over [0, n) split across workers. It runs
// inline when n is small or only one worker is configured.
func parallelFor(n, minPerWorker int, f func(lo, hi int)) {
	ParallelWorkers(n, minPerWorker, func(_, lo, hi int) { f(lo, hi) })
}

// wsPool recycles Workspaces for the package-level MatMul entry points so
// transient callers get packed-panel reuse without owning a Workspace.
var wsPool = sync.Pool{New: func() any { return NewWorkspace() }}

// gemmParallel splits the m output rows across workers, each running the
// blocked engine over its strip with a pooled workspace. Row strips write
// disjoint destination rows, so accumulation variants stay race-free.
func gemmParallel(dst, a, b []float32, m, n, k int, aTrans, bTrans, accum bool, bias []float32) {
	ParallelWorkers(m, 16, func(_, lo, hi int) {
		ws := wsPool.Get().(*Workspace)
		ws.gemmRange(dst, a, b, m, n, k, lo, hi, aTrans, bTrans, accum, bias)
		wsPool.Put(ws)
	})
}

// MatMul computes dst = a(m×k) * b(k×n). dst must be m×n and distinct
// from a and b.
func MatMul(dst, a, b *Tensor) {
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 || dst.shape[0] != m || dst.shape[1] != n {
		panic("tensor: MatMul shape mismatch")
	}
	gemmParallel(dst.data, a.data, b.data, m, n, k, false, false, false, nil)
}

// MatMulAccum computes dst += a(m×k) * b(k×n) without zeroing dst first.
func MatMulAccum(dst, a, b *Tensor) {
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 || dst.shape[0] != m || dst.shape[1] != n {
		panic("tensor: MatMulAccum shape mismatch")
	}
	gemmParallel(dst.data, a.data, b.data, m, n, k, false, false, true, nil)
}

// MatMulTransA computes dst(m×n) = aᵀ * b(k×n) for a stored as (k×m).
// Used for weight-gradient computation in convolution backward passes.
func MatMulTransA(dst, a, b *Tensor) {
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 || dst.shape[0] != m || dst.shape[1] != n {
		panic("tensor: MatMulTransA shape mismatch")
	}
	gemmParallel(dst.data, a.data, b.data, m, n, k, true, false, false, nil)
}

// MatMulTransAAccum computes dst(m×n) += aᵀ * b(k×n) for a stored (k×m),
// accumulating directly into dst — fully-connected layers use it to add
// the weight gradient xᵀ·g into Param.Grad without a temporary.
func MatMulTransAAccum(dst, a, b *Tensor) {
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 || dst.shape[0] != m || dst.shape[1] != n {
		panic("tensor: MatMulTransAAccum shape mismatch")
	}
	gemmParallel(dst.data, a.data, b.data, m, n, k, true, false, true, nil)
}

// MatMulTransBAccum computes dst(m×k) += a(m×n) * bᵀ where b is stored
// (k×n). Used for weight-gradient accumulation in convolution backward
// passes, where per-sample contributions sum into one gradient tensor.
func MatMulTransBAccum(dst, a, b *Tensor) {
	m, n := a.shape[0], a.shape[1]
	k, n2 := b.shape[0], b.shape[1]
	if n != n2 || dst.shape[0] != m || dst.shape[1] != k {
		panic("tensor: MatMulTransBAccum shape mismatch")
	}
	gemmParallel(dst.data, a.data, b.data, m, k, n, false, true, true, nil)
}

// MatMulTransB computes dst(m×k) = a(m×n) * bᵀ where b is stored (k×n).
// Used for input-gradient computation in convolution backward passes.
func MatMulTransB(dst, a, b *Tensor) {
	m, n := a.shape[0], a.shape[1]
	k, n2 := b.shape[0], b.shape[1]
	if n != n2 || dst.shape[0] != m || dst.shape[1] != k {
		panic("tensor: MatMulTransB shape mismatch")
	}
	gemmParallel(dst.data, a.data, b.data, m, k, n, false, true, false, nil)
}
