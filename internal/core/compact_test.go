package core

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"bepi/internal/gen"
	"bepi/internal/sparse"
)

// bitsEqual compares two score vectors under Float64bits — the contract
// parallel kernels make with serial ones.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestCompactEngineBitIdenticalQueries is the acceptance test for the
// compact layout's parallel query path: an engine on a dedicated 4-worker
// pool must produce bit-identical score vectors, identical top-k, and
// Float64bits-equal residuals to a serial engine built from the same graph.
func TestCompactEngineBitIdenticalQueries(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 21))
	for _, variant := range []Variant{VariantFull, VariantS} {
		serial, err := Preprocess(g, Options{Variant: variant, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		par, err := Preprocess(g, Options{Variant: variant, Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		if sb, pb := serial.MemoryBytes(), par.MemoryBytes(); sb != pb {
			t.Fatalf("%v: MemoryBytes differ: serial %d, parallel %d", variant, sb, pb)
		}
		if !par.Schur().Equal(serial.Schur()) {
			t.Fatalf("%v: parallel Schur differs", variant)
		}
		for _, seed := range []int{0, 7, g.N() - 1} {
			rs, ss, err := serial.Query(seed)
			if err != nil {
				t.Fatal(err)
			}
			rp, sp, err := par.Query(seed)
			if err != nil {
				t.Fatal(err)
			}
			if !bitsEqual(rs, rp) {
				t.Fatalf("%v seed %d: parallel scores differ from serial", variant, seed)
			}
			if math.Float64bits(ss.Residual) != math.Float64bits(sp.Residual) ||
				ss.Iterations != sp.Iterations {
				t.Fatalf("%v seed %d: solve stats differ: %v/%d vs %v/%d",
					variant, seed, ss.Residual, ss.Iterations, sp.Residual, sp.Iterations)
			}
			ts := RankTopK(rs, 10, seed)
			tp := RankTopK(rp, 10, seed)
			for i := range ts {
				if ts[i] != tp[i] {
					t.Fatalf("%v seed %d: top-k differs at %d: %+v vs %+v", variant, seed, i, ts[i], tp[i])
				}
			}
		}
		par.Pool().Close()
	}
}

// TestCompactIndexBytesHalved pins the ≈2× index-footprint cut: with the
// float64 values shared between layouts, every stored matrix's index bytes
// (everything except values) must be half those of its wide CSR form.
func TestCompactIndexBytesHalved(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 22))
	e, err := Preprocess(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Per stored matrix: wide spends 8 bytes/entry on columns and 8/row on
	// pointers, compact exactly half of each (dims here are far below the
	// int32 cutover).
	for i, cm := range []*sparse.CSR32{e.h12, e.h21, e.h31, e.h32, e.schur} {
		wm := cm.ToCSR()
		wIdx := wm.MemoryBytes() - int64(wm.NNZ())*8
		cIdx := cm.MemoryBytes() - int64(cm.NNZ())*8
		if wIdx != 2*cIdx {
			t.Fatalf("matrix %d: wide index bytes %d != 2x compact %d", i, wIdx, cIdx)
		}
	}
}

// TestCompactSurvivesSaveLoad checks that a compacted engine serializes in
// the layout-independent wide format and that a loaded engine (compacted
// again) answers bit-identically.
func TestCompactSurvivesSaveLoad(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 7, 24))
	e, err := Preprocess(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	l, err := ReadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := e.Query(5)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := l.Query(5)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(want, got) {
		t.Fatal("loaded engine differs from built engine")
	}
}

// TestKernelHookObservesSolve checks SetKernelHook fires for both hot-path
// kernels with exact payloads: one sample per application, batched or
// not, of the matrix's stored bytes plus 16·n2 per right-hand side. A
// solve applies S once per iteration and the preconditioner once more
// (M⁻¹b); a lockstep batch applies each once per round for all RHS still
// iterating.
func TestKernelHookObservesSolve(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 7, 26))
	e, err := Preprocess(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	type sample struct {
		kernel string
		bytes  int64
	}
	var mu sync.Mutex
	var samples []sample
	e.SetKernelHook(func(kernel string, seconds float64, b int64) {
		mu.Lock()
		defer mu.Unlock()
		samples = append(samples, sample{kernel, b})
		if seconds < 0 {
			t.Errorf("kernel %s: negative time %v s", kernel, seconds)
		}
	})
	vecBytes := int64(16 * e.ord.N2)
	matBytes := map[string]int64{KernelSchur: e.schur.MemoryBytes(), KernelPrecond: e.ilu.MemoryBytes()}
	count := func(kernel string) int {
		var c int
		for _, s := range samples {
			if s.kernel == kernel {
				c++
			}
		}
		return c
	}

	_, st, err := e.Query(2)
	if err != nil {
		t.Fatal(err)
	}
	if count(KernelSchur) != st.Iterations || count(KernelPrecond) != st.Iterations+1 {
		t.Fatalf("%d schur and %d precond samples for %d iterations",
			count(KernelSchur), count(KernelPrecond), st.Iterations)
	}
	for _, s := range samples {
		if s.bytes != matBytes[s.kernel]+vecBytes {
			t.Fatalf("single solve: %s sample of %d bytes, want %d", s.kernel, s.bytes, matBytes[s.kernel]+vecBytes)
		}
	}

	samples = nil
	seeds := []int{3, 40, 311}
	qs := make([][]float64, len(seeds))
	for k, s := range seeds {
		qs[k] = make([]float64, e.N())
		qs[k][s] = 1
	}
	_, stats, errs := e.QueryVectorBatch(nil, qs, nil)
	rounds, iterating := 0, int64(0) // a zero q̃2 is solved without iterating
	for k := range stats {
		if errs[k] != nil {
			t.Fatal(errs[k])
		}
		rounds = max(rounds, stats[k].Iterations)
		if stats[k].Iterations > 0 {
			iterating++
		}
	}
	if iterating < 2 {
		t.Fatalf("only %d of the batch's solves iterate", iterating)
	}
	if count(KernelSchur) != rounds || count(KernelPrecond) != rounds+1 {
		t.Fatalf("batch: %d schur and %d precond samples for %d rounds", count(KernelSchur), count(KernelPrecond), rounds)
	}
	// M⁻¹b covers every RHS, the first S·v every RHS that iterates.
	if s := samples[0]; s.kernel != KernelPrecond || s.bytes != matBytes[KernelPrecond]+3*vecBytes {
		t.Fatalf("batch: first sample %+v, want M⁻¹b over 3 RHS", s)
	}
	if s := samples[1]; s.kernel != KernelSchur || s.bytes != matBytes[KernelSchur]+iterating*vecBytes {
		t.Fatalf("batch: second sample %+v, want S·v over %d RHS", s, iterating)
	}

	e.SetKernelHook(nil)
	samples = nil
	if _, _, err := e.Query(2); err != nil {
		t.Fatal(err)
	}
	if len(samples) != 0 {
		t.Fatal("removed hook still fired")
	}
}

// TestParallelCompactQueriesBitIdentical runs concurrent queries against a
// compacted engine with a multi-worker pool and checks every result equals
// the serial reference bit for bit — the end-to-end composition of the
// CSR32 kernels, the level-scheduled ILU sweeps, and the shared pool.
func TestParallelCompactQueriesBitIdentical(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 27))
	ref, err := Preprocess(g, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := Preprocess(g, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int{0, 3, 9, 100, 511}
	wants := make([][]float64, len(seeds))
	for i, s := range seeds {
		if wants[i], _, err = ref.Query(s); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, len(seeds))
	for i, s := range seeds {
		wg.Add(1)
		go func(i, s int) {
			defer wg.Done()
			got, _, err := e.Query(s)
			if err != nil {
				errCh <- err
				return
			}
			if !bitsEqual(wants[i], got) {
				t.Errorf("seed %d: parallel compact query differs from serial", s)
			}
		}(i, s)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
