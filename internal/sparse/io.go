package sparse

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary serialization of CSR matrices. The format is a fixed little-endian
// layout so preprocessed indexes can be persisted and memory-mapped-style
// reloaded without re-running the (expensive) preprocessing phase:
//
//	magic   uint32  'BePI' (0x42655049)
//	version uint32  1
//	rows    int64
//	cols    int64
//	nnz     int64
//	rowPtr  (rows+1) × int64
//	col     nnz × int64
//	val     nnz × float64

const (
	csrMagic   = 0x42655049
	csrVersion = 1
)

// WriteTo serializes the matrix. It implements io.WriterTo.
func (m *CSR) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	var n int64
	writeU32 := func(v uint32) error {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		k, err := bw.Write(b[:])
		n += int64(k)
		return err
	}
	writeU64 := func(v uint64) error {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		k, err := bw.Write(b[:])
		n += int64(k)
		return err
	}
	if err := writeU32(csrMagic); err != nil {
		return n, err
	}
	if err := writeU32(csrVersion); err != nil {
		return n, err
	}
	for _, v := range []int{m.rows, m.cols, m.NNZ()} {
		if err := writeU64(uint64(v)); err != nil {
			return n, err
		}
	}
	for _, v := range m.rowPtr {
		if err := writeU64(uint64(v)); err != nil {
			return n, err
		}
	}
	for _, v := range m.col {
		if err := writeU64(uint64(v)); err != nil {
			return n, err
		}
	}
	for _, v := range m.val {
		if err := writeU64(math.Float64bits(v)); err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ReadCSR deserializes a matrix written by WriteTo. It reads exactly the
// bytes the matrix occupies (no read-ahead), so matrices can be read back
// from a concatenated stream; wrap the source in a bufio.Reader for speed.
func ReadCSR(r io.Reader) (*CSR, error) {
	var head [4 + 4 + 3*8]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("sparse: reading header: %w", err)
	}
	if magic := binary.LittleEndian.Uint32(head[0:]); magic != csrMagic {
		return nil, fmt.Errorf("sparse: bad magic %#x", magic)
	}
	if version := binary.LittleEndian.Uint32(head[4:]); version != csrVersion {
		return nil, fmt.Errorf("sparse: unsupported version %d", version)
	}
	rows := int(int64(binary.LittleEndian.Uint64(head[8:])))
	cols := int(int64(binary.LittleEndian.Uint64(head[16:])))
	nnz := int(int64(binary.LittleEndian.Uint64(head[24:])))
	if rows < 0 || cols < 0 || nnz < 0 {
		return nil, fmt.Errorf("sparse: corrupt header %dx%d nnz=%d", rows, cols, nnz)
	}
	rowPtr, err := ReadIntArray(r, rows+1)
	if err != nil {
		return nil, fmt.Errorf("sparse: reading rowPtr: %w", err)
	}
	if rowPtr[rows] != nnz {
		return nil, fmt.Errorf("sparse: rowPtr end %d != nnz %d", rowPtr[rows], nnz)
	}
	col, err := ReadIntArray(r, nnz)
	if err != nil {
		return nil, fmt.Errorf("sparse: reading col: %w", err)
	}
	val, err := ReadFloatArray(r, nnz)
	if err != nil {
		return nil, fmt.Errorf("sparse: reading val: %w", err)
	}
	return &CSR{rows: rows, cols: cols, rowPtr: rowPtr, col: col, val: val}, nil
}

// readChunkEntries is how many 8-byte values the array readers consume per
// read. Chunking means a corrupt header claiming an enormous array fails
// with an EOF as soon as the stream runs dry, instead of attempting one
// giant allocation up front.
const readChunkEntries = 1 << 16

// ReadIntArray reads n little-endian uint64 values as ints.
func ReadIntArray(r io.Reader, n int) ([]int, error) {
	out := make([]int, 0, minInt(n, readChunkEntries))
	buf := make([]byte, 8*minInt(n, readChunkEntries))
	for remaining := n; remaining > 0; {
		c := minInt(remaining, readChunkEntries)
		if _, err := io.ReadFull(r, buf[:8*c]); err != nil {
			return nil, err
		}
		for i := 0; i < c; i++ {
			out = append(out, int(int64(binary.LittleEndian.Uint64(buf[8*i:]))))
		}
		remaining -= c
	}
	return out, nil
}

// ReadFloatArray reads n little-endian float64 values, chunked like
// ReadIntArray.
func ReadFloatArray(r io.Reader, n int) ([]float64, error) {
	out := make([]float64, 0, minInt(n, readChunkEntries))
	buf := make([]byte, 8*minInt(n, readChunkEntries))
	for remaining := n; remaining > 0; {
		c := minInt(remaining, readChunkEntries)
		if _, err := io.ReadFull(r, buf[:8*c]); err != nil {
			return nil, err
		}
		for i := 0; i < c; i++ {
			out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:])))
		}
		remaining -= c
	}
	return out, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
