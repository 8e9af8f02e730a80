package core

import (
	"testing"
	"unsafe"

	"bfbdd/internal/node"
)

func TestOptionsDefaults(t *testing.T) {
	o := Options{Levels: 4}.withDefaults()
	if o.Workers != 1 {
		t.Errorf("Workers default = %d", o.Workers)
	}
	if o.EvalThreshold <= 0 || o.GroupSize <= 0 || o.CacheBits == 0 {
		t.Errorf("tuning defaults missing: %+v", o)
	}
	if o.GCGrowth <= 1 || o.GCMinNodes == 0 {
		t.Errorf("GC defaults missing: %+v", o)
	}
	// Non-parallel engines force one worker.
	o = Options{Levels: 4, Engine: EnginePBF, Workers: 8}.withDefaults()
	if o.Workers != 1 {
		t.Errorf("sequential engine kept %d workers", o.Workers)
	}
	// The parallel engine forces locking.
	o = Options{Levels: 4, Engine: EnginePar, Workers: 4}.withDefaults()
	if !o.Locking {
		t.Error("parallel engine without locking")
	}
}

func TestEngineAndPolicyStrings(t *testing.T) {
	names := map[Engine]string{
		EngineDF: "df", EngineBF: "bf", EngineHybrid: "hybrid",
		EnginePBF: "pbf", EnginePar: "par",
	}
	for e, want := range names {
		if e.String() != want {
			t.Errorf("%d.String() = %q want %q", e, e.String(), want)
		}
	}
	if GCCompact.String() != "compact" || GCFreeList.String() != "freelist" {
		t.Error("GC policy names wrong")
	}
	if OpAnd.String() != "and" || OpImp.String() != "imp" {
		t.Error("op names wrong")
	}
	if !OpAnd.Commutative() || OpImp.Commutative() {
		t.Error("commutativity flags wrong")
	}
}

func TestKernelAccessors(t *testing.T) {
	k := NewKernel(Options{Levels: 5, Engine: EnginePBF})
	if k.Levels() != 5 {
		t.Fatalf("Levels = %d", k.Levels())
	}
	if k.Store() == nil || k.Table(0) == nil {
		t.Fatal("nil substrates")
	}
	if k.Options().Engine != EnginePBF {
		t.Fatal("Options not surfaced")
	}
	x := k.VarRef(2)
	if x.Level() != 2 {
		t.Fatalf("VarRef level = %d", x.Level())
	}
	if k.NumNodes() != 1 {
		t.Fatalf("NumNodes = %d", k.NumNodes())
	}
	if k.NumPins() != 0 {
		t.Fatalf("NumPins = %d", k.NumPins())
	}
	p := k.Pin(x)
	if k.NumPins() != 1 || p.Ref() != x {
		t.Fatal("pin accounting wrong")
	}
	k.Unpin(p)
	if k.NumPins() != 0 {
		t.Fatal("unpin accounting wrong")
	}
}

func TestMemorySampling(t *testing.T) {
	k := NewKernel(Options{Levels: 8, Engine: EnginePBF})
	f := node.One
	for v := 0; v < 8; v++ {
		f = k.Apply(OpAnd, f, k.VarRef(v))
	}
	mem := k.Memory()
	if mem.PeakBytes == 0 || mem.NodeBytes == 0 {
		t.Fatalf("memory accounting empty: %+v", *mem)
	}
	if mem.Total() > mem.PeakBytes {
		t.Fatal("peak below current total")
	}
}

func TestApplyPanicsOnBadInput(t *testing.T) {
	k := NewKernel(Options{Levels: 2, Engine: EngineDF})
	for name, fn := range map[string]func(){
		"non-binary op":   func() { k.Apply(opExists, node.Zero, node.One) },
		"invalid operand": func() { k.Apply(OpAnd, node.Nil, node.One) },
		"bad mknode lvl":  func() { k.MkNode(9, node.Zero, node.One) },
		"bad mknode ref":  func() { k.MkNode(0, node.Nil, node.One) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestNewKernelPanicsOnBadLevels(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewKernel with negative levels did not panic")
		}
	}()
	NewKernel(Options{Levels: -1})
}

// TestOpNodeSize pins the operator node at 48 bytes: a ternary node's
// third operand lives in the arena's side blocks, so binary builds keep
// their operator-arena footprint.
func TestOpNodeSize(t *testing.T) {
	if n := unsafe.Sizeof(opNode{}); n != opNodeBytes {
		t.Fatalf("opNode is %d bytes, want %d", n, opNodeBytes)
	}
}
