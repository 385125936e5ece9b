package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"bepi/internal/lu"
	"bepi/internal/reorder"
	"bepi/internal/sparse"
)

// Index persistence: a preprocessed engine can be written to disk once and
// reloaded for later query sessions, which is the whole point of a
// preprocessing method. The layout is little-endian:
//
//	magic     uint32 'BPI1'
//	options   c, tol (float64), variant, maxIter, restart (int64), k (float64), solver (int64)
//	n, n1, n2, n3, nblocks  int64
//	perm      n × int64
//	blocks    nblocks × int64
//	h12, h21, h31, h32, schur   (sparse.CSR.WriteTo)
//	blockLU   (lu.BlockLU.WriteTo)
//
// The ILU preconditioner is not stored: recomputing ILU(0) from S on load is
// linear-ish in |S| and avoids format coupling.

const indexMagic = 0x42504931

// WriteTo serializes the engine. It implements io.WriterTo.
//
// Engines carrying a Woodbury correction refuse: their stored S is the base
// of a low-rank update, not the served graph's Schur complement, and the
// correction state is deliberately not part of the format. Run a full
// rebuild first.
func (e *Engine) WriteTo(w io.Writer) (int64, error) {
	if e.wood != nil {
		return 0, errors.New("core: cannot serialize a Woodbury-corrected engine; run a full rebuild first")
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	var n int64
	writeU64 := func(v uint64) error {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		k, err := bw.Write(buf[:])
		n += int64(k)
		return err
	}
	writeI := func(v int) error { return writeU64(uint64(v)) }
	writeF := func(v float64) error { return writeU64(math.Float64bits(v)) }

	var magic [4]byte
	binary.LittleEndian.PutUint32(magic[:], indexMagic)
	k, err := bw.Write(magic[:])
	n += int64(k)
	if err != nil {
		return n, err
	}
	for _, step := range []func() error{
		func() error { return writeF(e.opts.C) },
		func() error { return writeF(e.opts.Tol) },
		func() error { return writeI(int(e.opts.Variant)) },
		func() error { return writeI(e.opts.MaxIter) },
		func() error { return writeI(e.opts.GMRESRestart) },
		func() error { return writeF(e.opts.HubRatio) },
		func() error { return writeI(int(e.opts.Solver)) },
		func() error { return writeI(e.n) },
		func() error { return writeI(e.ord.N1) },
		func() error { return writeI(e.ord.N2) },
		func() error { return writeI(e.ord.N3) },
		func() error { return writeI(len(e.ord.Blocks)) },
	} {
		if err := step(); err != nil {
			return n, err
		}
	}
	for _, p := range e.ord.Perm {
		if err := writeI(p); err != nil {
			return n, err
		}
	}
	for _, b := range e.ord.Blocks {
		if err := writeI(b); err != nil {
			return n, err
		}
	}
	if err := bw.Flush(); err != nil {
		return n, err
	}
	// Matrices are serialized in the wide layout, so the on-disk format is
	// independent of the in-memory one.
	for _, m := range []*sparse.CSR32{e.h12, e.h21, e.h31, e.h32, e.schur} {
		k, err := m.ToCSR().WriteTo(w)
		n += k
		if err != nil {
			return n, err
		}
	}
	k2, err := e.h11LU.WriteTo(w)
	n += k2
	return n, err
}

// ReadEngine deserializes an engine written by WriteTo, recomputing the ILU
// preconditioner if the stored variant requires one.
func ReadEngine(r io.Reader) (*Engine, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("core: reading index magic: %w", err)
	}
	if binary.LittleEndian.Uint32(magic[:]) != indexMagic {
		return nil, fmt.Errorf("core: bad index magic %#x", binary.LittleEndian.Uint32(magic[:]))
	}
	readU64 := func() (uint64, error) {
		var buf [8]byte
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(buf[:]), nil
	}
	readI := func() (int, error) {
		v, err := readU64()
		return int(v), err
	}
	readF := func() (float64, error) {
		v, err := readU64()
		return math.Float64frombits(v), err
	}

	e := &Engine{}
	var variant, nblocks int
	var err error
	if e.opts.C, err = readF(); err != nil {
		return nil, fmt.Errorf("core: reading options: %w", err)
	}
	if e.opts.Tol, err = readF(); err != nil {
		return nil, err
	}
	if variant, err = readI(); err != nil {
		return nil, err
	}
	e.opts.Variant = Variant(variant)
	if e.opts.MaxIter, err = readI(); err != nil {
		return nil, err
	}
	if e.opts.GMRESRestart, err = readI(); err != nil {
		return nil, err
	}
	if e.opts.HubRatio, err = readF(); err != nil {
		return nil, err
	}
	var slv int
	if slv, err = readI(); err != nil {
		return nil, err
	}
	e.opts.Solver = SchurSolver(slv)
	if e.n, err = readI(); err != nil {
		return nil, err
	}
	ord := &reorder.Ordering{}
	if ord.N1, err = readI(); err != nil {
		return nil, err
	}
	if ord.N2, err = readI(); err != nil {
		return nil, err
	}
	if ord.N3, err = readI(); err != nil {
		return nil, err
	}
	if nblocks, err = readI(); err != nil {
		return nil, err
	}
	if e.n < 0 || nblocks < 0 || ord.N1+ord.N2+ord.N3 != e.n {
		return nil, fmt.Errorf("core: corrupt index header (n=%d partition=%d+%d+%d)",
			e.n, ord.N1, ord.N2, ord.N3)
	}
	if err := checkIndexRange(e.n); err != nil {
		return nil, err
	}
	// The arrays are read chunk by chunk, so a forged header claiming a huge
	// n or block count fails with an EOF once the stream runs dry instead of
	// attempting one giant allocation up front.
	if ord.Perm, err = sparse.ReadIntArray(br, e.n); err != nil {
		return nil, fmt.Errorf("core: reading permutation: %w", err)
	}
	ord.Inv = make([]int, e.n)
	for old, nw := range ord.Perm {
		if nw < 0 || nw >= e.n {
			return nil, fmt.Errorf("core: corrupt permutation entry %d", nw)
		}
		ord.Inv[nw] = old
	}
	if ord.Blocks, err = sparse.ReadIntArray(br, nblocks); err != nil {
		return nil, fmt.Errorf("core: reading blocks: %w", err)
	}
	if err := ord.Validate(); err != nil {
		return nil, fmt.Errorf("core: stored ordering invalid: %w", err)
	}
	e.ord = ord

	mats := make([]*sparse.CSR, 5)
	for i := range mats {
		m, err := sparse.ReadCSR(br)
		if err != nil {
			return nil, fmt.Errorf("core: reading matrix %d: %w", i, err)
		}
		mats[i] = m
	}
	if e.h11LU, err = lu.ReadBlockLU(br); err != nil {
		return nil, err
	}
	if e.opts.Variant == VariantFull {
		t0 := time.Now()
		if e.ilu, err = lu.FactorILU0(mats[4]); err != nil {
			return nil, fmt.Errorf("core: rebuilding ILU: %w", err)
		}
		e.prep.ILU = time.Since(t0)
	}
	e.setMatrices(mats[0], mats[1], mats[2], mats[3], mats[4])
	// Options the format does not store (MaxHubDrift) take their defaults,
	// exactly as on a freshly built engine.
	e.opts = e.opts.withDefaults()
	e.prep.N = e.n
	e.prep.N1, e.prep.N2, e.prep.N3 = ord.N1, ord.N2, ord.N3
	e.prep.Blocks = nblocks
	e.prep.SchurNNZ = e.schur.NNZ()
	e.prep.HubRatio = e.opts.HubRatio
	// Parallelism is a runtime knob, not part of the index format: a loaded
	// engine starts on the shared process-wide pool; callers tune it with
	// SetParallelism before serving.
	e.pool = poolFor(0)
	e.attachPool()
	return e, nil
}
