package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Row-kernel dispatch. Every kernel of the package (MatMul, MatMulTransB,
// MatMulTransBSplit, SpMM, SpMMTrans, SpMMMatMul, the dW reductions
// MatMulTransAAt and MatMulTransASplit, and the caller-supplied body of
// ForRows: nn's GAT forward and backward sweeps and its softmax loss) is one
// body that computes a list of output rows, and one dispatcher — dispatch —
// that cuts the call's row set into units, hands the units to the worker
// pool, and walks each unit in blocks of rowBlock rows, or of the call's
// grain where that is larger (a reduction's whole unit). A
// contiguous range is just another row list (rowRange), so the full, Range
// and Rows entry points of a kernel differ only in the list they pass. Rows
// are independent and every row is computed by the same body with the same
// per-row arithmetic, so every cut and every claim order is bit-identical;
// the kernel property tests pin full ≡ Range ≡ Rows per row.
//
// That holds for the reductions too, because they are cut by OUTPUT row: row
// c of out = aᵀ·b is the sum over a's column c alone, and the unit that owns
// it walks every reduction row in order. No two units write one row and each
// row is summed in the serial order, so there are no per-worker partial sums
// to fold and the result does not depend on the pool width.

// rowBlock is the most rows a row-independent kernel body is handed at once,
// and the dense kernels' claim size: the rows of a block share the operand
// they all read (b, or the projection's w) while it is in cache.
const rowBlock = 64

// spmmGrain is the claim size (in rows) of the sparse kernels when the
// caller supplies no chunk list: small enough that degree skew between
// claims stays bounded, large enough that the atomic cursor is not
// contended.
const spmmGrain = 8

// maxProcs caps the number of worker goroutines used by parallel kernels.
var maxProcs = runtime.GOMAXPROCS(0)

// Parallelism reports the kernel worker-pool width (GOMAXPROCS at init).
func Parallelism() int { return maxProcs }

// ForceParallelism sets the pool width dispatch sees and returns a function
// that restores it. It is a test hook — the width is otherwise fixed at
// init, and a single-CPU host would never run the pooled path of a layer
// built on these kernels — and must not be called while a kernel runs.
func ForceParallelism(width int) (restore func()) {
	saved := maxProcs
	maxProcs = width
	return func() { maxProcs = saved }
}

// identity is the shared read-only table 0, 1, 2, …: the contiguous rows
// [lo,hi) are the row list identity[lo:hi]. It is replaced by a longer copy
// when a call outgrows it and never written after publication, so slices of
// a superseded table stay valid.
var (
	identity   atomic.Pointer[[]int32]
	identityMu sync.Mutex
)

// rowRange returns the ascending row list lo, lo+1, …, hi−1. The slice
// aliases the shared table: callers must not write to it.
func rowRange(lo, hi int) []int32 {
	if t := identity.Load(); t != nil && len(*t) >= hi {
		return (*t)[lo:hi]
	}
	identityMu.Lock()
	defer identityMu.Unlock()
	if t := identity.Load(); t != nil && len(*t) >= hi {
		return (*t)[lo:hi]
	}
	n := 1024
	for n < hi {
		n *= 2
	}
	t := make([]int32, n)
	for i := range t {
		t[i] = int32(i)
	}
	identity.Store(&t)
	return t[lo:hi]
}

// checkRange rejects a row range outside [0,n).
func checkRange(name string, lo, hi, n int) {
	if lo < 0 || hi < lo || hi > n {
		panic(fmt.Sprintf("tensor: %s rows [%d,%d) outside [0,%d)", name, lo, hi, n))
	}
}

// rowKernel names a kernel body (see rowCall.block).
type rowKernel uint8

const (
	kernelFunc rowKernel = iota
	kernelMatMul
	kernelMatMulTransB
	kernelMatMulTransBSplit
	kernelSpMM
	kernelSpMMTrans
	kernelSpMMMatMul
	kernelMatMulTransA
	kernelMatMulTransASplit
)

// rowCall is one kernel invocation: which body, and its operands. The public
// kernels build one by value and pass it to dispatch; it reaches the pool
// workers inside the pooled task. No call builds a closure over its operands
// — one would escape to the heap on every call, parallel or not.
type rowCall struct {
	kernel rowKernel
	// Operands, by role: out (and out2, the fused kernels' second output: z
	// for SpMMMatMul, dSelf for MatMulTransBSplit) are written, a (and a2,
	// the self half of MatMulTransASplit's left operand) and b read.
	out, out2, a, a2, b *Matrix
	indptr              []int64
	indices             []int32 // CSR columns; MatMulTransAAt's block rows
	scale               []float32
	r0                  int                // MatMulTransAAt's first block row
	fn                  func(rows []int32) // kernelFunc's body
}

// block runs the call's body over one block of rows (see walk).
func (c *rowCall) block(rows []int32) {
	switch c.kernel {
	case kernelFunc:
		c.fn(rows)
	case kernelMatMul:
		matMulBlock(c.out, c.a, c.b, rows)
	case kernelMatMulTransB:
		matMulTransBBlock(c.out, c.a, c.b, rows)
	case kernelMatMulTransBSplit:
		matMulTransBSplitBlock(c.out, c.out2, c.a, c.b, rows)
	case kernelSpMM:
		spmmBlock(c.out, c.a, c.indptr, c.indices, c.scale, rows)
	case kernelSpMMTrans:
		spmmTransBlock(c.out, c.a, c.indptr, c.indices, c.scale, rows)
	case kernelSpMMMatMul:
		spmmMatMulBlock(c.out, c.out2, c.a, c.b, c.indptr, c.indices, c.scale, rows)
	case kernelMatMulTransA:
		c0, c1 := span(rows)
		matMulTransABlock(c.out.Data, c.a, c.b, c.indices, c.r0, c0, c1)
	case kernelMatMulTransASplit:
		c0, c1 := span(rows)
		matMulTransASplitBlock(c.out, c.a, c.a2, c.b, c0, c1)
	}
}

// span returns the bounds [lo,hi) of a piece of a rowRange, the only row
// list the reductions' bodies take, and rejects any other list.
func span(rows []int32) (lo, hi int) {
	lo, hi = int(rows[0]), int(rows[0])+len(rows)
	if int(rows[len(rows)-1]) != hi-1 {
		panic("tensor: reduction over a row list that is not a range")
	}
	return lo, hi
}

// walk runs the body over rows, one block of at most height rows at a time.
func (c *rowCall) walk(rows []int32, height int) {
	for len(rows) > height {
		c.block(rows[:height])
		rows = rows[height:]
	}
	if len(rows) > 0 {
		c.block(rows)
	}
}

// rowTask is one parallel dispatch: workers claim units of the row set by
// advancing the atomic cursor, so there is no per-unit lock. A unit is
// `grain` consecutive entries of rows, or — when the caller supplied chunk
// boundaries — one chunk.
type rowTask struct {
	rowCall
	rows   []int32
	grain  int
	chunks []int32 // boundaries in row-id space; rows is rowRange(base, …)
	base   int     // rows[0] when chunks != nil
	units  int
	next   atomic.Int64
	wg     sync.WaitGroup
	// failed is set by the first unit to panic, which keeps its value in
	// fault; dispatch re-panics it on the caller once every unit is done.
	failed atomic.Bool
	fault  any
}

func (t *rowTask) run() {
	for {
		u := int(t.next.Add(1)) - 1
		if u >= t.units {
			return
		}
		lo, hi := u*t.grain, (u+1)*t.grain
		if t.chunks != nil {
			lo, hi = max(int(t.chunks[u])-t.base, 0), int(t.chunks[u+1])-t.base
		}
		if hi = min(hi, len(t.rows)); lo < hi {
			t.walk(t.rows[lo:hi], max(t.grain, rowBlock))
		}
	}
}

// runCatching is run, holding a panic for the caller (see dispatch): the
// first unit to panic records its value and stops further claims; units
// already claimed finish.
func (t *rowTask) runCatching() {
	defer func() {
		if r := recover(); r != nil {
			if t.failed.CompareAndSwap(false, true) {
				t.fault = r
			}
			t.next.Store(int64(t.units))
		}
	}()
	t.run()
}

var (
	workerOnce sync.Once
	workQueue  chan *rowTask
)

// freeTasks is the dispatcher's free list of rowTasks: one per concurrent
// parallel call, kept for the process lifetime. (A sync.Pool would drop
// them — under -race a quarter of every Put — and a steady-state kernel call
// would allocate its task again.)
var freeTasks struct {
	sync.Mutex
	list []*rowTask
}

func getTask() *rowTask {
	freeTasks.Lock()
	defer freeTasks.Unlock()
	n := len(freeTasks.list)
	if n == 0 {
		return new(rowTask)
	}
	t := freeTasks.list[n-1]
	freeTasks.list = freeTasks.list[:n-1]
	return t
}

func putTask(t *rowTask) {
	freeTasks.Lock()
	freeTasks.list = append(freeTasks.list, t)
	freeTasks.Unlock()
}

// startWorkers launches the persistent kernel worker pool. Workers block on
// the queue between tasks; they are started lazily on the first parallel
// kernel call and live for the process lifetime.
func startWorkers() {
	workQueue = make(chan *rowTask, 4*maxProcs)
	for i := 0; i < maxProcs; i++ {
		go func() {
			for t := range workQueue {
				t.runCatching()
				t.wg.Done()
			}
		}()
	}
}

// dispatch runs call over rows. With chunks == nil the units of work are
// grain-row pieces of the list. Otherwise rows must be a rowRange and chunks
// an ascending boundary list over row ids (graph.AggIndex's edge-balanced
// lists; boundaries outside the range are clamped to it): each chunk is one
// unit, claimed whole, so a mega-degree row isolated in its own chunk
// occupies one worker instead of serializing that worker's share. The body
// is handed at most max(grain, rowBlock) rows at a time: rowBlock is the tile
// height the row kernels are blocked for, and a call that claims more than
// that per unit gets its units in one piece.
//
// Units are claimed from an atomic cursor by the pool workers and by the
// caller itself, so progress never depends on a worker being free and every
// unit runs exactly once. A single unit, or a single-CPU process, runs
// inline.
//
// A panic in the body — a row kernel's refused row id, a short operand —
// reaches the caller wherever the unit ran: inline it unwinds as usual; on
// the pool the unit that panicked stops further claims, dispatch waits for
// the units already claimed and re-panics the first value on the calling
// goroutine, so a deferred recover there (RankTrainer.failPass) sees it and
// no worker dies with the process. The task goes back to the free list clean.
func dispatch(call rowCall, rows []int32, grain int, chunks []int32) {
	units := (len(rows) + grain - 1) / grain
	if chunks != nil {
		units = len(chunks) - 1
	}
	if units <= 1 || maxProcs == 1 {
		call.walk(rows, max(grain, rowBlock))
		return
	}
	workerOnce.Do(startWorkers)
	t := getTask()
	t.rowCall, t.rows, t.grain, t.chunks, t.units = call, rows, grain, chunks, units
	if t.base = 0; chunks != nil && len(rows) > 0 {
		t.base = int(rows[0])
	}
	t.next.Store(0)
	helpers := min(units, maxProcs) - 1
	t.wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		workQueue <- t
	}
	t.runCatching()
	t.wg.Wait()
	fault, failed := t.fault, t.failed.Load()
	t.rowCall, t.rows, t.chunks, t.fault = rowCall{}, nil, nil, nil
	t.failed.Store(false)
	putTask(t)
	if failed {
		panic(fault)
	}
}

// ForRows runs fn over rows in pieces of at most rowBlock rows on the kernel
// worker pool — the dispatcher the package's own kernels run on, for
// per-row sweeps that live outside it (the GAT attention passes, the
// softmax loss). Pieces run
// concurrently, so fn must write only state owned by the rows it is handed,
// and it must not modify or retain the slice. A panic in fn reaches the
// caller of ForRows, on whichever goroutine the piece ran (see dispatch).
func ForRows(rows []int32, fn func(rows []int32)) {
	dispatch(rowCall{kernel: kernelFunc, fn: fn}, rows, rowBlock, nil)
}

// ForRange is ForRows over the contiguous rows [lo,hi).
func ForRange(lo, hi int, fn func(rows []int32)) {
	ForRows(rowRange(lo, hi), fn)
}

// ---- vector primitives ----
// Each has an AVX2+FMA fast path over the 8-aligned prefix and a pure-Go
// scalar tail; the scalar loops are the reference semantics on other CPUs.

// AddTo computes dst[j] += src[j]. Lengths must match.
func AddTo(dst, src []float32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: AddTo length mismatch %d vs %d", len(dst), len(src)))
	}
	n := len(dst)
	j := 0
	if useAVX2 && n >= 8 {
		n8 := n &^ 7
		addAVX2(&dst[0], &src[0], n8)
		j = n8
	}
	for ; j < n; j++ {
		dst[j] += src[j]
	}
}

// Axpy computes dst[j] += a*src[j]. Lengths must match.
func Axpy(dst, src []float32, a float32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: Axpy length mismatch %d vs %d", len(dst), len(src)))
	}
	n := len(dst)
	j := 0
	if useAVX2 && n >= 8 {
		n8 := n &^ 7
		axpyAVX2(&dst[0], &src[0], n8, a)
		j = n8
	}
	for ; j < n; j++ {
		dst[j] += a * src[j]
	}
}

// Dot returns the dot product of a and b. Lengths must match. Every dot of
// the package — MatMulTransB's, the split backward's and GatherDots' — has
// these bits (see dotRows), so a value computed by Dot and by a kernel is
// the same float.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	n := len(a)
	var s float32
	j := 0
	if useAVX2 && n >= 8 {
		n8 := n &^ 7
		s = dotAVX2(&a[0], &b[0], n8)
		j = n8
	}
	for ; j < n; j++ {
		s += a[j] * b[j]
	}
	return s
}

// ---- matrix kernels ----

// checkMatMul validates out = a·b shapes.
func checkMatMul(name string, out, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: %s inner dim mismatch %d vs %d", name, a.Cols, b.Rows))
	}
	if out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s out shape %dx%d, want %dx%d", name, out.Rows, out.Cols, a.Rows, b.Cols))
	}
}

// MatMul computes out = a·b where a is n×k and b is k×m. out must be n×m and
// is overwritten. Row blocks of rowBlock rows are distributed across workers;
// each output row is held in registers across its whole reduction over b's
// rows, four at a time, skipping four-wide zero panels of a (dropout).
func MatMul(out, a, b *Matrix) {
	checkMatMul("MatMul", out, a, b)
	dispatch(rowCall{kernel: kernelMatMul, out: out, a: a, b: b}, rowRange(0, a.Rows), rowBlock, nil)
}

// MatMulRange computes rows [lo,hi) of out = a·b, leaving all other rows of
// out untouched. Bit-identical per row to MatMul.
func MatMulRange(out, a, b *Matrix, lo, hi int) {
	checkMatMul("MatMulRange", out, a, b)
	checkRange("MatMulRange", lo, hi, a.Rows)
	dispatch(rowCall{kernel: kernelMatMul, out: out, a: a, b: b}, rowRange(lo, hi), rowBlock, nil)
}

// matMulBlock computes the listed rows of out = a·b: each row is one
// reduction over the k rows of b, held in registers from start to end.
func matMulBlock(out, a, b *Matrix, rows []int32) {
	k, m := a.Cols, b.Cols
	ks := rowRange(0, k)
	for _, v := range rows {
		i := int(v)
		dst := out.Data[i*m : i*m+m]
		clear(dst)
		panelRows(dst, b, ks, a.Data[i*k:i*k+k], 1)
	}
}

// checkMatMulTransB validates out = a·bᵀ shapes.
func checkMatMulTransB(name string, out, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s inner dim mismatch %d vs %d", name, a.Cols, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: %s out shape %dx%d, want %dx%d", name, out.Rows, out.Cols, a.Rows, b.Rows))
	}
}

// MatMulTransB computes out = a·bᵀ where a is n×k and b is m×k. out must be
// n×m and is overwritten. Both operands are walked along contiguous rows:
// each out element is one dot of an a row with a b row, with Dot's bits, and
// a row block's a rows are dotted with rowBlock b rows at a time so those b
// rows stay in cache across the block.
func MatMulTransB(out, a, b *Matrix) {
	checkMatMulTransB("MatMulTransB", out, a, b)
	dispatch(rowCall{kernel: kernelMatMulTransB, out: out, a: a, b: b}, rowRange(0, a.Rows), rowBlock, nil)
}

// MatMulTransBRange computes rows [lo,hi) of out = a·bᵀ, leaving all other
// rows of out untouched. Bit-identical per row to MatMulTransB.
func MatMulTransBRange(out, a, b *Matrix, lo, hi int) {
	checkMatMulTransB("MatMulTransBRange", out, a, b)
	checkRange("MatMulTransBRange", lo, hi, a.Rows)
	dispatch(rowCall{kernel: kernelMatMulTransB, out: out, a: a, b: b}, rowRange(lo, hi), rowBlock, nil)
}

// matMulTransBBlock computes the listed rows of out = a·bᵀ, one dotRows call
// per output row and chunk of rowBlock b rows.
func matMulTransBBlock(out, a, b *Matrix, rows []int32) {
	k, m := a.Cols, b.Rows
	for j0 := 0; j0 < m; j0 += rowBlock {
		j1 := min(j0+rowBlock, m)
		cols := rowRange(j0, j1)
		for _, v := range rows {
			i := int(v)
			dotRows(out.Data[i*m+j0:i*m+j1], a.Data[i*k:i*k+k], b, cols)
		}
	}
}

// reduceGrain is the claim size of a dW reduction over outRows output rows:
// one unit per pool worker, which the body takes in one piece (see dispatch).
// A unit walks every reduction row, so a finer cut or rowBlock pieces would
// only stream a and b more often; and since no cut can change a bit, this
// one may follow the width.
func reduceGrain(outRows int) int {
	return max((outRows+maxProcs-1)/maxProcs, 1)
}

// MatMulTransA computes out = aᵀ·b where a is k×n and b is k×m. out must be
// n×m and is overwritten. The work is cut by output row — a column of a — and
// every output row reduces over k in order, so the result is the same bits
// at every pool width.
func MatMulTransA(out, a, b *Matrix) { MatMulTransAAt(out, a, b, nil) }

// MatMulTransAAt is MatMulTransA over operands whose trailing rows are a
// selection, stored in any order, from a dense block of virtual rows: block
// row v is stored row rowOf[v] of a and b, or a zero row where rowOf[v] is
// −1, and rowOf names each trailing row once. out is reduced in exactly the
// order MatMulTransA reduces the dense operands — the same blocks of four
// rows, aligned to virtual row 0 — so the result has their bits, and the
// cost that of the stored rows.
//
// A reduction over rows is the one kernel whose float grouping depends on
// where its rows sit. The epoch engine's node space holds only the sampled
// boundary slots, in owner-major order; attention's dW reduces over that
// space as a selection of the partition's full slot range in slot order, so
// its bits depend neither on which other slots an epoch sampled nor on where
// the engine stores them.
func MatMulTransAAt(out, a, b *Matrix, rowOf []int32) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dim mismatch %d vs %d", a.Rows, b.Rows))
	}
	if out.Rows != a.Cols || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransA out shape %dx%d, want %dx%d", out.Rows, out.Cols, a.Cols, b.Cols))
	}
	r0 := a.Rows
	for v, r := range rowOf {
		if r < -1 || int(r) >= a.Rows {
			panic(fmt.Sprintf("tensor: MatMulTransAAt places stored row %d of %d at virtual row %d", r, a.Rows, v))
		}
		if r >= 0 {
			r0--
		}
	}
	dispatch(rowCall{kernel: kernelMatMulTransA, out: out, a: a, b: b, indices: rowOf, r0: r0},
		rowRange(0, out.Rows), reduceGrain(out.Rows), nil)
}

// reduceTile is the largest piece of out, in floats, that a reduction sums
// on its stack before storing it (see matMulTransABlock): 16 KB, a unit of
// 64 output rows by 64 columns.
const reduceTile = 4096

// reduceSlab is how many reduction terms (virtual rows of a and b) one pass
// of a dW reduction takes, and reduceCols how many output rows share one
// pass: the slab's 64 rows of b stay in L1 while the output rows walk them,
// and its coefficients are one 16 KB scratch.
const (
	reduceSlab = 64
	reduceCols = 64
)

// matMulTransABlock computes rows [c0,c1) of aᵀ·b — the sums over columns
// [c0,c1) of a — into od, whose row c holds m = b.Cols floats at c·m. The
// reduction runs over the virtual rows of MatMulTransAAt (b's rows before
// r0, a may be taller, then the block rowOf places), four virtual rows per
// panel from row 0 and the remainder row by row. A virtual row that is not
// stored is a zero row: it takes its lane of a panel with a zero coefficient
// and the b row of the panel's first stored one, and a panel or tail row
// with nothing stored is skipped.
//
// The terms go by in slabs of reduceSlab. A slab's coefficients are its
// stored rows of a, cut to the output rows' columns and copied into scratch
// (a zero lane's row cleared), so output row c walks its column of the
// scratch at a fixed stride and is held in registers across the whole slab
// (panelRows).
//
// A piece of at most reduceTile floats is summed in a local tile and stored
// once at the end. Neighbouring units' pieces are adjacent in od and every
// slab sweeps a piece from end to end; summed in place, two cores on two 8 KB
// pieces took 1.35× the time they take with 8 KB or more between the pieces,
// as if each core's prefetchers ran past the end of its piece into the lines
// the other is writing. The tile starts on a cache line, as the allocator
// starts a Matrix, so no 32-byte row access straddles two lines.
func matMulTransABlock(od []float32, a, b *Matrix, rowOf []int32, r0, c0, c1 int) {
	w, m := a.Cols, b.Cols
	ad := a.Data
	stored := func(v int) int32 { // the stored row of virtual row v, or −1
		if v < r0 {
			return int32(v)
		}
		return rowOf[v-r0]
	}
	var tile [reduceTile + 15]float32
	acc := od[c0*m : c1*m] // row c of the piece at (c−c0)·m
	if len(acc) <= reduceTile {
		off := int(-uintptr(unsafe.Pointer(&tile))/4) & 15 // floats up to the next 64-byte line
		acc = tile[off : off+len(acc)]
	}
	clear(acc)
	var (
		src  [reduceSlab]int32 // the stored row a term's coefficients come from; −1 for a zero lane
		rows [reduceSlab]int32 // the row of b a term reads
		coef [reduceCols * reduceSlab]float32
	)
	end := r0 + len(rowOf)
	tail := end / 4 * 4 // virtual rows from here on are reduced one by one
	for v := 0; v < end; {
		s := 0 // a multiple of 4 until the tail, so a full slab stops both loops
		for ; s+4 <= reduceSlab && v < tail; v += 4 {
			first := int32(-1)
			for t := v; t < v+4 && first < 0; t++ {
				first = stored(t)
			}
			for t := v; first >= 0 && t < v+4; t++ {
				if src[s], rows[s] = stored(t), stored(t); rows[s] < 0 {
					rows[s] = first
				}
				s++
			}
		}
		for ; s < reduceSlab && v < end; v++ {
			if r := stored(v); r >= 0 {
				src[s], rows[s] = r, r
				s++
			}
		}
		for cb0 := c0; cb0 < c1; cb0 += reduceCols {
			cb1 := min(cb0+reduceCols, c1)
			cw := cb1 - cb0 // term t's coefficient for row c at coef[t·cw + c−cb0]
			for t, r := range src[:s] {
				if r < 0 {
					clear(coef[t*cw : t*cw+cw])
				} else {
					copy(coef[t*cw:t*cw+cw], ad[int(r)*w+cb0:int(r)*w+cb1])
				}
			}
			for c := cb0; c < cb1; c++ {
				panelRows(acc[(c-c0)*m:(c-c0+1)*m], b, rows[:s], coef[c-cb0:], cw)
			}
		}
	}
	copy(od[c0*m:c1*m], acc)
}
