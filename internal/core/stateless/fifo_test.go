package stateless

import (
	"testing"
	"testing/quick"

	"github.com/hypertester/hypertester/internal/asic"
)

var layout = []asic.Field{asic.FieldIPv4Src, asic.FieldTCPSeq, asic.FieldInPort}

func TestPushPopOrder(t *testing.T) {
	f := New("t", layout, 8)
	for i := uint64(0); i < 5; i++ {
		if !f.Push([]uint64{i, i * 10, i * 100}) {
			t.Fatalf("push %d failed", i)
		}
	}
	if f.Len() != 5 {
		t.Fatalf("len = %d", f.Len())
	}
	for i := uint64(0); i < 5; i++ {
		v, ok := f.Pop(nil)
		if !ok {
			t.Fatalf("pop %d failed", i)
		}
		if v[0] != i || v[1] != i*10 || v[2] != i*100 {
			t.Fatalf("pop %d = %v", i, v)
		}
	}
	if _, ok := f.Pop(nil); ok {
		t.Fatal("pop from empty succeeded")
	}
	if f.Len() != 0 {
		t.Fatalf("len after drain = %d", f.Len())
	}
}

func TestOverflowCountedAndDropped(t *testing.T) {
	f := New("t", layout, 2)
	f.Push([]uint64{1, 0, 0})
	f.Push([]uint64{2, 0, 0})
	if f.Push([]uint64{3, 0, 0}) {
		t.Fatal("push to full queue succeeded")
	}
	if f.Overflows != 1 {
		t.Fatalf("overflows = %d", f.Overflows)
	}
	// The queued records are intact.
	v, _ := f.Pop(nil)
	if v[0] != 1 {
		t.Fatalf("head = %v", v)
	}
}

func TestWrapAround(t *testing.T) {
	f := New("t", layout, 4)
	for round := 0; round < 10; round++ {
		for i := uint64(0); i < 3; i++ {
			if !f.Push([]uint64{uint64(round)*10 + i, 0, 0}) {
				t.Fatalf("round %d push %d failed", round, i)
			}
		}
		for i := uint64(0); i < 3; i++ {
			v, ok := f.Pop(nil)
			if !ok || v[0] != uint64(round)*10+i {
				t.Fatalf("round %d pop %d = %v ok=%v", round, i, v, ok)
			}
		}
	}
}

func TestPushArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("wrong arity did not panic")
		}
	}()
	New("t", layout, 4).Push([]uint64{1})
}

func TestFieldIndex(t *testing.T) {
	f := New("t", layout, 4)
	if f.FieldIndex(asic.FieldTCPSeq) != 1 {
		t.Fatal("FieldIndex")
	}
	if f.FieldIndex(asic.FieldTCPAck) != -1 {
		t.Fatal("missing field should be -1")
	}
	if f.Cap() != 4 {
		t.Fatal("Cap")
	}
}

// Property: any interleaving of pushes and pops preserves FIFO order of the
// successfully-pushed elements.
func TestFIFOOrderProperty(t *testing.T) {
	check := func(ops []bool) bool {
		f := New("p", []asic.Field{asic.FieldIPv4Src}, 8)
		var next, expect uint64
		for _, push := range ops {
			if push {
				if f.Push([]uint64{next}) {
					next++
				}
			} else if v, ok := f.Pop(nil); ok {
				if v[0] != expect {
					return false
				}
				expect++
			}
		}
		// Drain the remainder.
		for {
			v, ok := f.Pop(nil)
			if !ok {
				break
			}
			if v[0] != expect {
				return false
			}
			expect++
		}
		// Every successful push must eventually pop.
		return expect == next
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
