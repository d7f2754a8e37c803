// Package machine describes the computing resource on which a simulation and
// its in-situ analyses run: node counts, memory per node, ranks per node and
// torus network geometry. The paper's evaluation system is Mira, a 48-rack
// IBM Blue Gene/Q at Argonne (16 GB RAM per node, 5D torus interconnect);
// Mira() reproduces that descriptor, and iosim.GPFS() its storage. The network diameter exposed here is the y-variable the paper
// uses for bilinear interpolation of collective-communication time (§4).
package machine

import (
	"fmt"
	"sort"
)

// Machine describes a parallel computer.
type Machine struct {
	Nodes        int   // total compute nodes
	RanksPerNode int   // MPI-like ranks per node used by jobs
	MemPerNode   int64 // bytes of RAM per node
	TorusDims    int   // dimensionality of the torus interconnect
}

// Mira returns a descriptor of the IBM Blue Gene/Q system used in the paper:
// 48 racks x 2 midplanes x 512 nodes, 16 ranks per node in the paper's runs,
// 16 GB per node, 5D torus.
func Mira() *Machine {
	return &Machine{
		Nodes:        48 * 2 * 512,
		RanksPerNode: 16,
		MemPerNode:   16 << 30,
		TorusDims:    5,
	}
}

// Laptop returns a small descriptor for running the mini-apps at test scale.
func Laptop() *Machine {
	return &Machine{
		Nodes:        1,
		RanksPerNode: 8,
		MemPerNode:   16 << 30,
		TorusDims:    1,
	}
}

// Partition is an allocation of nodes on a machine, with the torus shape the
// control system would carve out for it.
type Partition struct {
	Machine *Machine
	Nodes   int
	Ranks   int
	Shape   []int // torus dimensions, product == Nodes
}

// Partition allocates the given number of nodes and computes a near-balanced
// torus shape for it. Node counts that are not a power of two are accepted;
// the shape is built from the prime factorization.
func (m *Machine) Partition(nodes int) (*Partition, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("machine: partition of %d nodes", nodes)
	}
	if nodes > m.Nodes {
		return nil, fmt.Errorf("machine: partition of %d nodes exceeds machine size %d", nodes, m.Nodes)
	}
	return &Partition{
		Machine: m,
		Nodes:   nodes,
		Ranks:   nodes * m.RanksPerNode,
		Shape:   TorusShape(nodes, m.TorusDims),
	}, nil
}

// PartitionForRanks allocates enough nodes for the given rank count.
func (m *Machine) PartitionForRanks(ranks int) (*Partition, error) {
	if ranks <= 0 {
		return nil, fmt.Errorf("machine: partition for %d ranks", ranks)
	}
	nodes := (ranks + m.RanksPerNode - 1) / m.RanksPerNode
	p, err := m.Partition(nodes)
	if err != nil {
		return nil, err
	}
	p.Ranks = ranks
	return p, nil
}

// Diameter returns the network diameter of the partition's torus: the sum of
// floor(d/2) over all dimensions, the maximum hop count between two nodes.
func (p *Partition) Diameter() int {
	return TorusDiameter(p.Shape)
}

// TotalMemory returns the aggregate memory of the partition in bytes.
func (p *Partition) TotalMemory() int64 {
	return int64(p.Nodes) * p.Machine.MemPerNode
}

// String formats the partition for diagnostics.
func (p *Partition) String() string {
	return fmt.Sprintf("%d nodes (%d ranks) shape %v diameter %d", p.Nodes, p.Ranks, p.Shape, p.Diameter())
}

// TorusShape factorizes n into dims near-balanced torus dimensions. The
// decomposition multiplies prime factors onto the currently smallest
// dimension, which mirrors how partition shapes grow on Blue Gene systems.
func TorusShape(n, dims int) []int {
	if dims <= 0 {
		dims = 1
	}
	shape := make([]int, dims)
	for i := range shape {
		shape[i] = 1
	}
	for _, f := range primeFactors(n) {
		sort.Ints(shape)
		shape[0] *= f
	}
	sort.Sort(sort.Reverse(sort.IntSlice(shape)))
	return shape
}

// TorusDiameter returns the maximum hop distance on a torus of the given
// shape: sum over dimensions of floor(d/2).
func TorusDiameter(shape []int) int {
	d := 0
	for _, s := range shape {
		d += s / 2
	}
	return d
}

func primeFactors(n int) []int {
	var fs []int
	for f := 2; f*f <= n; f++ {
		for n%f == 0 {
			fs = append(fs, f)
			n /= f
		}
	}
	if n > 1 {
		fs = append(fs, n)
	}
	// Largest factors first so they seed the dimensions.
	sort.Sort(sort.Reverse(sort.IntSlice(fs)))
	return fs
}
