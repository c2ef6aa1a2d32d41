package topology

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// freshPath is the reference: one BFS per call from src that stops
// when dst is dequeued, sorting each node's neighbors as it goes.
// Path's cached trees must give exactly its paths.
func freshPath(t *Topology, src, dst int) ([]int, error) {
	if src == dst {
		return []int{src}, nil
	}
	prev := make([]int, t.N)
	for i := range prev {
		prev[i] = -1
	}
	prev[src] = src
	queue := []int{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == dst {
			break
		}
		nbs := make([]int, 0, len(t.adj[cur]))
		for nb := range t.adj[cur] {
			nbs = append(nbs, nb)
		}
		sort.Ints(nbs)
		for _, nb := range nbs {
			if prev[nb] == -1 {
				prev[nb] = cur
				queue = append(queue, nb)
			}
		}
	}
	if prev[dst] == -1 {
		return nil, fmt.Errorf("topology: no path %d->%d", src, dst)
	}
	var rev []int
	for cur := dst; cur != src; cur = prev[cur] {
		rev = append(rev, cur)
	}
	rev = append(rev, src)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, nil
}

// everyShape builds one topology per constructor, including the
// shapes with equal-length path ties (bidirectional ring, mesh,
// fat-tree).
func everyShape() map[string]*Topology {
	return map[string]*Topology{
		"ring":          Ring(7),
		"bidir-ring-6":  RingBidir(6),
		"bidir-ring-7":  RingBidir(7),
		"star":          Star(5),
		"linear":        Linear(6),
		"tree":          Tree(3, 2),
		"mesh":          Mesh(4, 5),
		"mesh-squarish": MeshSquarish(14),
		"fattree":       FatTree(4),
	}
}

func TestCachedPathMatchesFreshBFS(t *testing.T) {
	for name, topo := range everyShape() {
		for src := 0; src < topo.N; src++ {
			for dst := 0; dst < topo.N; dst++ {
				want, wantErr := freshPath(topo, src, dst)
				// Twice: the first call builds src's tree, the second
				// reads it.
				for i := 0; i < 2; i++ {
					got, err := topo.Path(src, dst)
					if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: Path(%d,%d) = %v, %v; fresh BFS %v, %v",
							name, src, dst, got, err, want, wantErr)
					}
				}
			}
		}
	}
}

func TestPathReturnsFreshSlice(t *testing.T) {
	m := Mesh(3, 3)
	p, err := m.Path(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]int(nil), p...)
	for i := range p {
		p[i] = -7
	}
	again, err := m.Path(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatalf("Path(0,8) after caller writes = %v, want %v", again, want)
	}
}

// TestHostPathConcurrent resolves every host pair from several
// goroutines on a fresh topology, so the trees are built while other
// goroutines read them. Run it with -race.
func TestHostPathConcurrent(t *testing.T) {
	build := func() *Topology {
		m := Mesh(5, 6)
		for sw := 0; sw < m.N; sw++ {
			m.AttachHost(100+sw, sw)
		}
		return m
	}
	ref := build()
	want := make(map[[2]int][]int)
	for a := 0; a < ref.N; a++ {
		for b := 0; b < ref.N; b++ {
			p, err := freshPath(ref, a, b)
			if err != nil {
				t.Fatal(err)
			}
			want[[2]int{a, b}] = p
		}
	}
	m := build()
	const workers = 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < m.N*m.N; i++ {
				// Each worker walks the pairs in its own order.
				k := (i*7 + w*31) % (m.N * m.N)
				a, b := k/m.N, k%m.N
				got, err := m.HostPath(100+a, 100+b)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[[2]int{a, b}]) {
					t.Errorf("HostPath(%d,%d) = %v, want %v", 100+a, 100+b, got, want[[2]int{a, b}])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
