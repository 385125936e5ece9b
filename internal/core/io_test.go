package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"bepi/internal/gen"
	"bepi/internal/vec"
)

func TestEngineSerializationRoundTrip(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 6, 21))
	for _, v := range []Variant{VariantB, VariantS, VariantFull} {
		orig, err := Preprocess(g, Options{Variant: v, HubRatio: 0.2, Tol: 1e-10})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		var buf bytes.Buffer
		if _, err := orig.WriteTo(&buf); err != nil {
			t.Fatalf("%v: WriteTo: %v", v, err)
		}
		back, err := ReadEngine(&buf)
		if err != nil {
			t.Fatalf("%v: ReadEngine: %v", v, err)
		}
		if back.N() != orig.N() {
			t.Fatalf("%v: n = %d want %d", v, back.N(), orig.N())
		}
		if back.Preconditioned() != (v == VariantFull) {
			t.Fatalf("%v: preconditioner state lost", v)
		}
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 3; trial++ {
			seed := rng.Intn(g.N())
			want, _, err := orig.Query(seed)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := back.Query(seed)
			if err != nil {
				t.Fatal(err)
			}
			if d := vec.Dist2(got, want); d > 1e-12 {
				t.Fatalf("%v seed %d: reloaded engine differs by %v", v, seed, d)
			}
		}
	}
}

func TestReadEngineRejectsGarbage(t *testing.T) {
	if _, err := ReadEngine(bytes.NewReader([]byte("not an index"))); err == nil {
		t.Fatal("expected error for bad magic")
	}
	if _, err := ReadEngine(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected error for empty stream")
	}
}

func TestReadEngineRejectsTruncated(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(7, 5, 22))
	e, err := Preprocess(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{10, len(raw) / 2, len(raw) - 5} {
		if _, err := ReadEngine(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("expected error for stream cut at %d", cut)
		}
	}
}

// TestSaveLoadParity: an engine loaded from disk must be indistinguishable
// from the engine it was saved from — the same MemoryBytes, and under the
// same spoke and hub ApplyDelta ops the same Schur complement, ILU factors
// and query answers, bit for bit. The delta path on a loaded engine is the
// one every restarted server takes.
func TestSaveLoadParity(t *testing.T) {
	g := gen.Hybrid(gen.DefaultHybrid(10, 8, 3))
	opts := Options{Variant: VariantFull, HubRatio: 0.2, Tol: 1e-10}
	built, err := Preprocess(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := built.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b, l := built.MemoryBytes(), loaded.MemoryBytes(); b != l {
		t.Fatalf("MemoryBytes: built %d, loaded %d", b, l)
	}

	rng := rand.New(rand.NewSource(31))
	spoke := genSpokeDeltaOps(rng, g, built, 8)
	hub := genHubDeltaOps(rng, g, built, 4)
	if len(spoke) == 0 || len(hub) == 0 {
		t.Fatalf("fixture yields %d spoke and %d hub ops", len(spoke), len(hub))
	}
	for _, tc := range []struct {
		name  string
		ops   []EdgeDelta
		class DeltaClass
	}{{"spoke", spoke, DeltaSpoke}, {"hub", hub, DeltaHub}} {
		gNew := applyOpsToGraph(g, g.N(), tc.ops)
		eb, sb, err := built.ApplyDelta(gNew, tc.ops)
		if err != nil {
			t.Fatalf("%s: built ApplyDelta: %v", tc.name, err)
		}
		el, sl, err := loaded.ApplyDelta(gNew, tc.ops)
		if err != nil {
			t.Fatalf("%s: loaded ApplyDelta: %v", tc.name, err)
		}
		if sb.Class != tc.class || sl.Class != tc.class ||
			sb.AffectedColumns != sl.AffectedColumns || sb.Rank != sl.Rank {
			t.Fatalf("%s: stats differ: built %+v, loaded %+v", tc.name, sb, sl)
		}
		if b, l := eb.MemoryBytes(), el.MemoryBytes(); b != l {
			t.Fatalf("%s: MemoryBytes after delta: built %d, loaded %d", tc.name, b, l)
		}
		csrBitsEqual(t, tc.name+" schur", eb.Schur(), el.Schur())
		lb, ub := eb.ILU().Split()
		ll, ul := el.ILU().Split()
		csrBitsEqual(t, tc.name+" ilu L", lb, ll)
		csrBitsEqual(t, tc.name+" ilu U", ub, ul)
		requireQueryBitsEqual(t, eb, el, []int{0, 5, g.N() / 2, g.N() - 1})
	}
}

// TestReadEngineRejectsForgedHeader: header counts size the permutation and
// block arrays, so a ~100-byte index claiming billions of nodes or blocks
// must fail with an error — not attempt the allocation it describes.
func TestReadEngineRejectsForgedHeader(t *testing.T) {
	forge := func(n, nblocks uint64, tail ...uint64) []byte {
		var b []byte
		b = binary.LittleEndian.AppendUint32(b, indexMagic)
		for _, v := range []uint64{
			math.Float64bits(DefaultC), math.Float64bits(DefaultTol),
			uint64(VariantFull), 1000, 0, math.Float64bits(0.2), uint64(SolverGMRES),
			n, n, 0, 0, nblocks, // n, n1, n2, n3, nblocks
		} {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		for _, v := range tail {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		return b
	}
	for name, raw := range map[string][]byte{
		"n=2^36":       forge(1<<36, 1),
		"n=2^31":       forge(1<<31, 1),
		"nblocks=2^40": forge(1, 1<<40, 0),
	} {
		if _, err := ReadEngine(bytes.NewReader(raw)); err == nil {
			t.Fatalf("%s: forged %d-byte index loaded without error", name, len(raw))
		}
	}
}
