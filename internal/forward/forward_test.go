package forward

import (
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
)

func TestResolveUnicast(t *testing.T) {
	e := New(16, 4)
	if err := e.Unicast.Add(ethernet.HostMAC(1), 10, 2); err != nil {
		t.Fatal(err)
	}
	f := &ethernet.Frame{Dst: ethernet.HostMAC(1), VID: 10}
	ports, ok := e.Resolve(f, nil)
	if !ok || len(ports) != 1 || ports[0] != 2 {
		t.Fatalf("Resolve = (%v,%v)", ports, ok)
	}
}

func TestResolveMiss(t *testing.T) {
	e := New(16, 4)
	f := &ethernet.Frame{Dst: ethernet.HostMAC(9), VID: 1}
	if _, ok := e.Resolve(f, nil); ok {
		t.Fatal("miss resolved")
	}
	if e.NoRoute() != 1 {
		t.Fatalf("NoRoute = %d", e.NoRoute())
	}
}

func TestResolveMulticast(t *testing.T) {
	e := New(16, 4)
	grp := ethernet.GroupMAC(300)
	if err := e.Multicast.Add(MCID(grp), 0b1101); err != nil {
		t.Fatal(err)
	}
	ports, ok := e.Resolve(&ethernet.Frame{Dst: grp}, nil)
	if !ok {
		t.Fatal("multicast miss")
	}
	want := []int{0, 2, 3}
	if len(ports) != len(want) {
		t.Fatalf("ports = %v, want %v", ports, want)
	}
	for i := range want {
		if ports[i] != want[i] {
			t.Fatalf("ports = %v, want %v", ports, want)
		}
	}
}

func TestResolveMulticastMiss(t *testing.T) {
	e := New(16, 4)
	if _, ok := e.Resolve(&ethernet.Frame{Dst: ethernet.GroupMAC(7)}, nil); ok {
		t.Fatal("multicast miss resolved")
	}
}

func TestMCIDDerivation(t *testing.T) {
	if MCID(ethernet.GroupMAC(0x1234)) != 0x1234 {
		t.Fatalf("MCID = %x", MCID(ethernet.GroupMAC(0x1234)))
	}
}

func TestZeroMulticastTable(t *testing.T) {
	// Customized switches split multicast into unicast and run with a
	// zero-entry multicast table.
	e := New(16, 0)
	if _, ok := e.Resolve(&ethernet.Frame{Dst: ethernet.GroupMAC(1)}, nil); ok {
		t.Fatal("zero-capacity multicast resolved")
	}
}
