package cache

import (
	"testing"
	"testing/quick"
	"unsafe"

	"bfbdd/internal/node"
)

func mkRef(level int, idx uint64) node.Ref { return node.MakeRef(level, 0, idx) }

func TestTaggedRoundTrip(t *testing.T) {
	r := mkRef(5, 99)
	v := FromRef(r)
	if v.IsOpHandle() {
		t.Fatal("ref tagged as op handle")
	}
	if v.Ref() != r {
		t.Fatalf("Ref() = %v", v.Ref())
	}
	h := Tagged(1<<63 | 12345)
	if !h.IsOpHandle() {
		t.Fatal("op handle not recognized")
	}
}

func TestTaggedQuick(t *testing.T) {
	f := func(level uint16, idx uint64) bool {
		r := mkRef(int(level)%node.TermLevel, idx&((1<<40)-1))
		v := FromRef(r)
		return !v.IsOpHandle() && v.Ref() == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLookupInsert(t *testing.T) {
	c := New(4, 10)
	f, g := mkRef(1, 0), mkRef(2, 3)
	if _, ok := c.Lookup(0, 1, f, g); ok {
		t.Fatal("hit on empty cache")
	}
	want := FromRef(mkRef(3, 7))
	c.Insert(0, 1, f, g, want)
	got, ok := c.Lookup(0, 1, f, g)
	if !ok || got != want {
		t.Fatalf("Lookup = %v,%v", got, ok)
	}
	// Different op, same operands: miss.
	if _, ok := c.Lookup(0, 2, f, g); ok {
		t.Fatal("hit with wrong op")
	}
	// Different level segment: miss.
	if _, ok := c.Lookup(1, 1, f, g); ok {
		t.Fatal("hit in wrong segment")
	}
	if c.Hits() != 1 || c.Misses() != 3 {
		t.Fatalf("hits=%d misses=%d", c.Hits(), c.Misses())
	}
}

func TestEviction(t *testing.T) {
	c := New(1, initialBits) // fixed-size segment, no growth
	// Fill far beyond capacity; the cache must remain lossy but correct.
	n := uint64(4 << initialBits)
	for i := uint64(0); i < n; i++ {
		c.Insert(0, 1, mkRef(1, i), mkRef(2, i), FromRef(mkRef(0, i)))
	}
	hits := 0
	for i := uint64(0); i < n; i++ {
		if v, ok := c.Lookup(0, 1, mkRef(1, i), mkRef(2, i)); ok {
			if v.Ref().Index() != i {
				t.Fatalf("wrong value for key %d: %v", i, v.Ref())
			}
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("all entries evicted — hash must be degenerate")
	}
	if hits == int(n) {
		t.Fatal("no evictions in an over-filled direct-mapped cache")
	}
}

func TestGrowthKeepsEntries(t *testing.T) {
	c := New(1, 16)
	keys := make([]node.Ref, 0, 1<<initialBits)
	for i := uint64(0); i < 1<<initialBits; i++ {
		k := mkRef(1, i)
		keys = append(keys, k)
		c.Insert(0, 1, k, node.One, FromRef(mkRef(0, i)))
	}
	before := 0
	for _, k := range keys {
		if _, ok := c.Lookup(0, 1, k, node.One); ok {
			before++
		}
	}
	// Trigger growth with more inserts.
	for i := uint64(1 << initialBits); i < 1<<(initialBits+2); i++ {
		c.Insert(0, 1, mkRef(1, i), node.One, FromRef(mkRef(0, i)))
	}
	if c.Bytes() <= uint64(1<<initialBits)*32 {
		t.Fatalf("segment did not grow: %d bytes", c.Bytes())
	}
	after := 0
	for _, k := range keys {
		if v, ok := c.Lookup(0, 1, k, node.One); ok {
			if v.Ref().Index() != k.Index() {
				t.Fatalf("wrong value after growth for %v", k)
			}
			after++
		}
	}
	if after == 0 {
		t.Fatal("growth lost every early entry")
	}
}

func TestGenerationInvalidation(t *testing.T) {
	c := New(2, 10)
	f, g := mkRef(1, 1), mkRef(1, 2)
	bddVal := FromRef(mkRef(0, 9))
	opVal := Tagged(1<<63 | 42)

	c.Insert(0, 1, f, g, bddVal)
	c.Insert(1, 1, f, g, opVal)

	// InvalidateOps kills op-handle entries only.
	c.InvalidateOps()
	if _, ok := c.Lookup(1, 1, f, g); ok {
		t.Fatal("op-handle entry survived InvalidateOps")
	}
	if v, ok := c.Lookup(0, 1, f, g); !ok || v != bddVal {
		t.Fatal("BDD entry should survive InvalidateOps")
	}

	// InvalidateBDD kills everything.
	c.Insert(1, 1, f, g, opVal)
	c.InvalidateBDD()
	if _, ok := c.Lookup(0, 1, f, g); ok {
		t.Fatal("BDD entry survived InvalidateBDD")
	}
	if _, ok := c.Lookup(1, 1, f, g); ok {
		t.Fatal("op entry survived InvalidateBDD")
	}

	// Fresh inserts after invalidation work.
	c.Insert(0, 1, f, g, bddVal)
	if _, ok := c.Lookup(0, 1, f, g); !ok {
		t.Fatal("insert after invalidation not visible")
	}
}

func TestUpdate(t *testing.T) {
	c := New(1, 10)
	f, g := mkRef(1, 1), mkRef(1, 2)
	opVal := Tagged(1<<63 | 7)
	c.Insert(0, 3, f, g, opVal)
	final := FromRef(mkRef(0, 5))
	c.Update(0, 3, f, g, final)
	v, ok := c.Lookup(0, 3, f, g)
	if !ok || v != final {
		t.Fatalf("after Update: %v,%v", v, ok)
	}
	// Update of an absent key is a no-op.
	c.Update(0, 3, mkRef(1, 99), g, final)
	if _, ok := c.Lookup(0, 3, mkRef(1, 99), g); ok {
		t.Fatal("Update created an entry")
	}
}

func TestStaleSlotReusable(t *testing.T) {
	c := New(1, 10)
	f, g := mkRef(1, 1), mkRef(1, 2)
	c.Insert(0, 1, f, g, Tagged(1<<63|1))
	c.InvalidateOps()
	// Same slot, new value: must win and be visible.
	c.Insert(0, 1, f, g, FromRef(mkRef(0, 3)))
	v, ok := c.Lookup(0, 1, f, g)
	if !ok || v.IsOpHandle() {
		t.Fatalf("reinsert into stale slot failed: %v,%v", v, ok)
	}
}

// TestEntrySizes pins the entry layouts: ternary entries live in their
// own segments so the binary entry, probed on every Shannon step of
// every binary build, keeps its 32 bytes.
func TestEntrySizes(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n != 32 {
		t.Fatalf("binary entry is %d bytes, want 32", n)
	}
	if n := unsafe.Sizeof(entry3{}); n != 40 {
		t.Fatalf("ternary entry is %d bytes, want 40", n)
	}
}

func TestTernaryLookupInsert(t *testing.T) {
	c := New(4, 10)
	f, g, h := mkRef(1, 0), mkRef(2, 3), mkRef(3, 5)
	if c.Bytes() != 0 {
		t.Fatalf("fresh cache holds %d bytes", c.Bytes())
	}
	if _, ok := c.Lookup3(1, 9, f, g, h); ok {
		t.Fatal("hit in empty cache")
	}
	c.Insert3(1, 9, f, g, h, FromRef(node.One))
	if v, ok := c.Lookup3(1, 9, f, g, h); !ok || v.Ref() != node.One {
		t.Fatalf("Lookup3 = %v, %v", v, ok)
	}
	// The third operand and the op code are part of the key, and the
	// binary segments never see ternary entries.
	if _, ok := c.Lookup3(1, 9, f, g, f); ok {
		t.Fatal("hit with a different third operand")
	}
	if _, ok := c.Lookup3(1, 8, f, g, h); ok {
		t.Fatal("hit with a different op")
	}
	if _, ok := c.Lookup(1, 9, f, g); ok {
		t.Fatal("binary lookup hit a ternary entry")
	}
	c.Update3(1, 9, f, g, h, FromRef(node.Zero))
	if v, _ := c.Lookup3(1, 9, f, g, h); v.Ref() != node.Zero {
		t.Fatalf("Update3 not applied: %v", v)
	}
	op := Tagged(1<<63 | 7)
	c.Insert3(2, 9, f, g, h, op)
	c.InvalidateOps()
	if _, ok := c.Lookup3(2, 9, f, g, h); ok {
		t.Fatal("op-handle entry survived InvalidateOps")
	}
	c.InvalidateBDD()
	if _, ok := c.Lookup3(1, 9, f, g, h); ok {
		t.Fatal("ref entry survived InvalidateBDD")
	}
	if c.Bytes() != 0 {
		t.Fatalf("InvalidateBDD kept %d bytes of stale segments", c.Bytes())
	}
}
