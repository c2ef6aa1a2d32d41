// Package topology builds the paper's three industrial-control network
// shapes — star, ring and linear (§IV.A) — as switch-level graphs with
// port assignments, and computes the deterministic paths flows follow.
//
// Trunk (inter-switch) ports are allocated first and are the "enabled
// TSN ports" of the resource analysis: 3 for the star core, 2 for
// linear interior nodes, 1 for the unidirectional ring. Host access
// ports are allocated after the trunks.
package topology

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Kind enumerates the supported shapes.
type Kind int

// Supported topology kinds.
const (
	KindStar Kind = iota
	KindRing
	KindLinear
	KindTree
	KindRingBidir
	KindMesh
	KindFatTree
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindStar:
		return "star"
	case KindRing:
		return "ring"
	case KindLinear:
		return "linear"
	case KindTree:
		return "tree"
	case KindRingBidir:
		return "bidir-ring"
	case KindMesh:
		return "mesh"
	case KindFatTree:
		return "fattree"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Topology is a switch-level graph with port bookkeeping.
type Topology struct {
	Kind Kind
	// N is the number of switches, numbered 0..N-1.
	N int
	// EnabledTSNPorts is the per-switch maximum of deterministic trunk
	// ports, the port_num of the paper's resource analysis (3/2/1 for
	// star/linear/ring).
	EnabledTSNPorts int

	// adj[sw][neighbor] = output port on sw toward neighbor.
	adj []map[int]int
	// nbrs[sw] lists sw's neighbors in ascending order.
	nbrs [][]int
	// trees[src] is the BFS predecessor tree rooted at src, built on
	// first use by Path (trunks never change after construction).
	trees []bfsTree
	// nextPort[sw] = next unallocated port index.
	nextPort []int
	// hostPort[host] = attachment point.
	hostPort map[int]Attach
	// links are the physical trunk cables (both endpoints).
	links []Link
}

// Attach locates a host's access port.
type Attach struct {
	Switch int
	Port   int
}

// Link is one physical trunk cable between two switch ports.
type Link struct {
	A, B Attach
}

func newTopology(kind Kind, n, enabled int) *Topology {
	t := &Topology{
		Kind:            kind,
		N:               n,
		EnabledTSNPorts: enabled,
		adj:             make([]map[int]int, n),
		nbrs:            make([][]int, n),
		trees:           make([]bfsTree, n),
		nextPort:        make([]int, n),
		hostPort:        make(map[int]Attach),
	}
	for i := range t.adj {
		t.adj[i] = make(map[int]int)
	}
	return t
}

// addTrunk allocates the next port on sw toward neighbor.
func (t *Topology) addTrunk(sw, neighbor int) {
	t.adj[sw][neighbor] = t.nextPort[sw]
	t.nextPort[sw]++
	i := sort.SearchInts(t.nbrs[sw], neighbor)
	t.nbrs[sw] = slices.Insert(t.nbrs[sw], i, neighbor)
}

// Star builds a core switch (0) with children 1..children. The paper's
// star has three children (4 switches) and 3 enabled TSN ports on the
// core.
func Star(children int) *Topology {
	if children < 1 {
		panic("topology: star needs at least one child")
	}
	t := newTopology(KindStar, children+1, children)
	for c := 1; c <= children; c++ {
		corePort := t.nextPort[0]
		t.addTrunk(0, c)
		childPort := t.nextPort[c]
		t.addTrunk(c, 0)
		t.links = append(t.links, Link{
			A: Attach{Switch: 0, Port: corePort},
			B: Attach{Switch: c, Port: childPort},
		})
	}
	return t
}

// Ring builds n switches in a unidirectional ring: switch i forwards to
// switch (i+1) mod n. Each node has a single enabled TSN port, the
// paper's most resource-frugal case.
func Ring(n int) *Topology {
	if n < 3 {
		panic("topology: ring needs at least 3 switches")
	}
	t := newTopology(KindRing, n, 1)
	for i := 0; i < n; i++ {
		t.addTrunk(i, (i+1)%n)
	}
	// Receiving side of each trunk: the upstream neighbor's cable lands
	// on a dedicated ingress port (egress-idle, so it consumes no
	// queue/buffer resources).
	for i := 0; i < n; i++ {
		next := (i + 1) % n
		rx := t.nextPort[next]
		t.nextPort[next]++
		t.links = append(t.links, Link{
			A: Attach{Switch: i, Port: t.adj[i][next]},
			B: Attach{Switch: next, Port: rx},
		})
	}
	return t
}

// RingBidir builds n switches in a bidirectional ring: switch i can
// forward both to (i+1) mod n (port 0, clockwise) and to (i-1) mod n
// (port 1, counter-clockwise). Two enabled TSN ports per node. This is
// the redundant-ring shape 802.1CB FRER needs: any two nodes are joined
// by two link-disjoint paths, one per ring direction.
func RingBidir(n int) *Topology {
	if n < 3 {
		panic("topology: bidir ring needs at least 3 switches")
	}
	t := newTopology(KindRingBidir, n, 2)
	for i := 0; i < n; i++ {
		t.addTrunk(i, (i+1)%n) // port 0: clockwise
	}
	for i := 0; i < n; i++ {
		t.addTrunk(i, (i-1+n)%n) // port 1: counter-clockwise
	}
	// One physical cable per adjacent pair, joining i's clockwise port
	// to (i+1)'s counter-clockwise port.
	for i := 0; i < n; i++ {
		next := (i + 1) % n
		t.links = append(t.links, Link{
			A: Attach{Switch: i, Port: t.adj[i][next]},
			B: Attach{Switch: next, Port: t.adj[next][i]},
		})
	}
	return t
}

// Tree builds a two-level aggregation tree: one root switch with
// `spines` children, each child with `leaves` children of its own
// (1 + spines + spines×leaves switches). The root's spine count is the
// per-switch maximum of deterministic trunk ports, the paper's
// "etc." case for larger industrial backbones.
func Tree(spines, leaves int) *Topology {
	if spines < 1 || leaves < 0 {
		panic("topology: tree needs at least one spine")
	}
	n := 1 + spines + spines*leaves
	enabled := spines
	if leaves+1 > enabled {
		enabled = leaves + 1 // a spine's downlinks + uplink
	}
	t := newTopology(KindTree, n, enabled)
	next := 1
	for s := 0; s < spines; s++ {
		spine := next
		next++
		rootPort := t.nextPort[0]
		t.addTrunk(0, spine)
		spinePort := t.nextPort[spine]
		t.addTrunk(spine, 0)
		t.links = append(t.links, Link{
			A: Attach{Switch: 0, Port: rootPort},
			B: Attach{Switch: spine, Port: spinePort},
		})
		for l := 0; l < leaves; l++ {
			leaf := next
			next++
			sp := t.nextPort[spine]
			t.addTrunk(spine, leaf)
			lp := t.nextPort[leaf]
			t.addTrunk(leaf, spine)
			t.links = append(t.links, Link{
				A: Attach{Switch: spine, Port: sp},
				B: Attach{Switch: leaf, Port: lp},
			})
		}
	}
	return t
}

// Linear builds n switches in a chain with bidirectional forwarding;
// interior nodes have 2 enabled TSN ports.
func Linear(n int) *Topology {
	if n < 2 {
		panic("topology: linear needs at least 2 switches")
	}
	t := newTopology(KindLinear, n, 2)
	for i := 0; i < n-1; i++ {
		left := t.nextPort[i]
		t.addTrunk(i, i+1)
		right := t.nextPort[i+1]
		t.addTrunk(i+1, i)
		t.links = append(t.links, Link{
			A: Attach{Switch: i, Port: left},
			B: Attach{Switch: i + 1, Port: right},
		})
	}
	return t
}

// AttachHost allocates an access port for host on switch sw.
func (t *Topology) AttachHost(host, sw int) Attach {
	if sw < 0 || sw >= t.N {
		panic(fmt.Sprintf("topology: switch %d out of range", sw))
	}
	if a, ok := t.hostPort[host]; ok {
		return a
	}
	a := Attach{Switch: sw, Port: t.nextPort[sw]}
	t.nextPort[sw]++
	t.hostPort[host] = a
	return a
}

// HostAttach returns host's attachment point.
func (t *Topology) HostAttach(host int) (Attach, bool) {
	a, ok := t.hostPort[host]
	return a, ok
}

// Hosts returns all attached host IDs.
func (t *Topology) Hosts() []int {
	out := make([]int, 0, len(t.hostPort))
	for h := range t.hostPort {
		out = append(out, h)
	}
	return out
}

// PortCount returns the number of ports switch sw needs instantiated.
func (t *Topology) PortCount(sw int) int { return t.nextPort[sw] }

// TrunkLinks returns the physical inter-switch cables.
func (t *Topology) TrunkLinks() []Link { return t.links }

// PortToward returns sw's output port toward direct neighbor next.
func (t *Topology) PortToward(sw, next int) (int, bool) {
	p, ok := t.adj[sw][next]
	return p, ok
}

// Path returns the switch sequence from switch src to switch dst,
// inclusive. For the unidirectional ring the path follows the ring
// direction; otherwise it is the (unique) shortest path.
//
// Paths are read from one BFS tree per source switch, built on the
// first call from that source. Path is safe for concurrent use, and
// each call returns a fresh slice the caller may keep or modify.
func (t *Topology) Path(src, dst int) ([]int, error) {
	if src < 0 || src >= t.N || dst < 0 || dst >= t.N {
		return nil, fmt.Errorf("topology: path %d->%d out of range", src, dst)
	}
	if src == dst {
		return []int{src}, nil
	}
	prev := t.tree(src)
	if prev[dst] == -1 {
		return nil, fmt.Errorf("topology: no path %d->%d", src, dst)
	}
	n := 1
	for cur := dst; cur != src; cur = prev[cur] {
		n++
	}
	path := make([]int, n)
	for cur, i := dst, n-1; i >= 0; cur, i = prev[cur], i-1 {
		path[i] = cur
	}
	return path, nil
}

// bfsTree is one source switch's lazily built predecessor tree.
type bfsTree struct {
	once sync.Once
	prev []int
}

// tree returns the BFS predecessor tree rooted at src: prev[src] ==
// src, prev[sw] == -1 for unreachable switches. BFS runs over the
// directed adjacency (the ring is directed; the other shapes are
// symmetric) and visits neighbors in ascending order, so ties between
// equal-length paths (the bidirectional ring, the mesh) break
// deterministically. A switch's predecessor is fixed when it is first
// discovered, so the path to any dst is the one a BFS stopping at dst
// would find.
func (t *Topology) tree(src int) []int {
	tr := &t.trees[src]
	tr.once.Do(func() {
		prev := make([]int, t.N)
		for i := range prev {
			prev[i] = -1
		}
		prev[src] = src
		queue := make([]int, 1, t.N)
		queue[0] = src
		for head := 0; head < len(queue); head++ {
			cur := queue[head]
			for _, nb := range t.nbrs[cur] {
				if prev[nb] == -1 {
					prev[nb] = cur
					queue = append(queue, nb)
				}
			}
		}
		tr.prev = prev
	})
	return tr.prev
}

// DisjointPaths returns two link-disjoint switch paths from src to
// dst: the clockwise and counter-clockwise walks of a bidirectional
// ring. These are the member streams' paths for 802.1CB replication.
// Only KindRingBidir guarantees disjointness; other kinds return an
// error.
func (t *Topology) DisjointPaths(src, dst int) (primary, alternate []int, err error) {
	if t.Kind != KindRingBidir {
		return nil, nil, fmt.Errorf("topology: disjoint paths need a bidirectional ring, have %v", t.Kind)
	}
	if src < 0 || src >= t.N || dst < 0 || dst >= t.N {
		return nil, nil, fmt.Errorf("topology: disjoint paths %d->%d out of range", src, dst)
	}
	if src == dst {
		return nil, nil, fmt.Errorf("topology: disjoint paths need distinct endpoints")
	}
	for cur := src; ; cur = (cur + 1) % t.N {
		primary = append(primary, cur)
		if cur == dst {
			break
		}
	}
	for cur := src; ; cur = (cur - 1 + t.N) % t.N {
		alternate = append(alternate, cur)
		if cur == dst {
			break
		}
	}
	return primary, alternate, nil
}

// DisjointHostPaths is DisjointPaths between two attached hosts.
func (t *Topology) DisjointHostPaths(srcHost, dstHost int) (primary, alternate []int, err error) {
	sa, ok := t.hostPort[srcHost]
	if !ok {
		return nil, nil, fmt.Errorf("topology: host %d not attached", srcHost)
	}
	da, ok := t.hostPort[dstHost]
	if !ok {
		return nil, nil, fmt.Errorf("topology: host %d not attached", dstHost)
	}
	return t.DisjointPaths(sa.Switch, da.Switch)
}

// HostPath returns the full switch path between two attached hosts.
func (t *Topology) HostPath(srcHost, dstHost int) ([]int, error) {
	sa, ok := t.hostPort[srcHost]
	if !ok {
		return nil, fmt.Errorf("topology: host %d not attached", srcHost)
	}
	da, ok := t.hostPort[dstHost]
	if !ok {
		return nil, fmt.Errorf("topology: host %d not attached", dstHost)
	}
	return t.Path(sa.Switch, da.Switch)
}
