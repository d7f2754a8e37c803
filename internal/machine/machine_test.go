package machine

import (
	"testing"
	"testing/quick"
)

func TestMiraDescriptor(t *testing.T) {
	m := Mira()
	if m.Nodes != 49152 {
		t.Fatalf("Mira nodes = %d, want 49152 (48 racks x 1024)", m.Nodes)
	}
	if m.MemPerNode != 16<<30 {
		t.Fatalf("Mira memory per node = %d, want 16 GiB", m.MemPerNode)
	}
	if m.RanksPerNode != 16 {
		t.Fatalf("Mira ranks per node = %d, want 16", m.RanksPerNode)
	}
}

func TestPartitionShapes(t *testing.T) {
	m := Mira()
	for _, nodes := range []int{128, 256, 512, 1024, 2048} {
		p, err := m.Partition(nodes)
		if err != nil {
			t.Fatal(err)
		}
		prod := 1
		for _, d := range p.Shape {
			prod *= d
		}
		if prod != nodes {
			t.Fatalf("shape %v product %d != %d nodes", p.Shape, prod, nodes)
		}
		if len(p.Shape) != 5 {
			t.Fatalf("shape %v is not 5D", p.Shape)
		}
		if p.Ranks != nodes*16 {
			t.Fatalf("ranks = %d, want %d", p.Ranks, nodes*16)
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	m := Mira()
	if _, err := m.Partition(0); err == nil {
		t.Fatal("expected error for 0 nodes")
	}
	if _, err := m.Partition(m.Nodes + 1); err == nil {
		t.Fatal("expected error for oversubscription")
	}
	if _, err := m.PartitionForRanks(0); err == nil {
		t.Fatal("expected error for 0 ranks")
	}
}

func TestPartitionForRanks(t *testing.T) {
	m := Mira()
	p, err := m.PartitionForRanks(16384)
	if err != nil {
		t.Fatal(err)
	}
	if p.Nodes != 1024 {
		t.Fatalf("16384 ranks -> %d nodes, want 1024", p.Nodes)
	}
	if p.TotalMemory() != int64(1024)*(16<<30) {
		t.Fatalf("total memory = %d", p.TotalMemory())
	}
}

func TestDiameterGrowsWithPartition(t *testing.T) {
	m := Mira()
	prev := -1
	for _, nodes := range []int{128, 512, 2048, 8192} {
		p, err := m.Partition(nodes)
		if err != nil {
			t.Fatal(err)
		}
		d := p.Diameter()
		if d <= prev {
			t.Fatalf("diameter %d for %d nodes not larger than previous %d", d, nodes, prev)
		}
		prev = d
	}
}

func TestTorusDiameterKnown(t *testing.T) {
	// 4x4x4x4x2 (512-node midplane): 2+2+2+2+1 = 9.
	if d := TorusDiameter([]int{4, 4, 4, 4, 2}); d != 9 {
		t.Fatalf("midplane diameter = %d, want 9", d)
	}
	if d := TorusDiameter([]int{1}); d != 0 {
		t.Fatalf("single-node diameter = %d, want 0", d)
	}
}

// Property: TorusShape always multiplies out to n and is non-increasing.
func TestTorusShapeProperty(t *testing.T) {
	f := func(raw uint16) bool {
		n := int(raw%4096) + 1
		shape := TorusShape(n, 5)
		prod := 1
		for i, d := range shape {
			if d < 1 {
				return false
			}
			prod *= d
			if i > 0 && shape[i] > shape[i-1] {
				return false
			}
		}
		return prod == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLaptopSane(t *testing.T) {
	m := Laptop()
	p, err := m.Partition(1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Diameter() != 0 {
		t.Fatalf("single-node laptop diameter = %d", p.Diameter())
	}
	if p.String() == "" {
		t.Fatal("empty partition string")
	}
}
