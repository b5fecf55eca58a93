package partition

import (
	"fmt"
	"testing"

	"repro/internal/graph"
)

// pathGraph9 builds a 9-node path 0-1-2-...-8 with the canonical 3-way split
// {0,1,2} {3,4,5} {6,7,8}.
func pathGraph9() (*graph.Graph, []int32) {
	b := graph.NewBuilder(9)
	for v := int32(0); v < 8; v++ {
		b.AddEdge(v, v+1)
	}
	return b.Build(), []int32{0, 0, 0, 1, 1, 1, 2, 2, 2}
}

func TestReassignFoldsByAffinity(t *testing.T) {
	g, parts := pathGraph9()
	out, err := reassignDead(g, parts, 3, []bool{false, true, false})
	if err != nil {
		t.Fatal(err)
	}
	// Node 3 touches part 0 only; node 4 then touches the freshly folded 3,
	// so the chain folds coherently; node 5 ties 1-1 between parts 0 and 2
	// and the lower id wins.
	want := []int32{0, 0, 0, 0, 0, 0, 2, 2, 2}
	for v := range want {
		if out[v] != want[v] {
			t.Fatalf("node %d: got part %d, want %d (full: %v)", v, out[v], want[v], out)
		}
	}
	// Input untouched.
	if parts[3] != 1 {
		t.Fatal("reassignDead mutated its input")
	}
}

func TestReassignPocketGoesToSmallestSurvivor(t *testing.T) {
	// Node 4 is isolated inside dead part 1: no surviving neighbor ever, so
	// balance decides. Part 2 starts smaller (2 nodes vs part 0's 3).
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 5)
	g := b.Build()
	parts := []int32{0, 0, 0, 1, 1, 2}
	out, err := reassignDead(g, parts, 3, []bool{false, true, false})
	if err != nil {
		t.Fatal(err)
	}
	if out[3] != 2 {
		t.Fatalf("node 3 neighbors survivor 5 (part 2); got part %d", out[3])
	}
	if out[4] != 2 {
		t.Fatalf("isolated node 4 should fold into the smallest survivor (part 2), got %d", out[4])
	}
}

func TestReassignRejectsBadArgs(t *testing.T) {
	g, parts := pathGraph9()
	dead := []bool{false, true, false}
	if _, err := reassignDead(g, parts[:5], 3, dead); err == nil {
		t.Fatal("short assignment accepted")
	}
	if _, err := reassignDead(g, make([]int32, g.N), 1, []bool{true}); err == nil {
		t.Fatal("every partition dead accepted: there is no survivor to absorb the rows")
	}
	bad := append([]int32(nil), parts...)
	bad[0] = 7
	if _, err := reassignDead(g, bad, 3, dead); err == nil {
		t.Fatal("invalid partition id accepted")
	}
}

func TestCompactRenumbersOntoMembers(t *testing.T) {
	parts := []int32{0, 2, 3, 2, 0}
	out, err := Compact(parts, []int{0, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{0, 1, 2, 1, 0}
	for v := range want {
		if out[v] != want[v] {
			t.Fatalf("node %d: got %d want %d", v, out[v], want[v])
		}
	}
	if _, err := Compact(parts, []int{0, 3}); err == nil {
		t.Fatal("assignment with a non-member partition accepted")
	}
	if _, err := Compact(parts, []int{3, 0, 2}); err == nil {
		t.Fatal("unsorted member set accepted")
	}
	if _, err := Compact(parts, nil); err == nil {
		t.Fatal("empty member set accepted")
	}
}

func TestShrinkToMembersIsDeterministicAndValid(t *testing.T) {
	g := communityGraph(t, 7)
	m := &Metis{Seed: 1}
	const k = 4
	parts, err := m.Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	members := []int{0, 2, 3}
	a, err := ShrinkToMembers(g, parts, k, members)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ShrinkToMembers(g, parts, k, members)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("node %d: shrink not deterministic (%d vs %d)", v, a[v], b[v])
		}
	}
	// Valid dense k'=3 assignment with survivor rows kept in place.
	if _, err := ComputeStats(g, a, len(members)); err != nil {
		t.Fatalf("shrunken assignment invalid: %v", err)
	}
	compactOf := map[int32]int32{0: 0, 2: 1, 3: 2}
	for v := range a {
		if want, live := compactOf[parts[v]]; live && a[v] != want {
			t.Fatalf("survivor node %d moved: launch part %d, shrunken part %d (want %d)", v, parts[v], a[v], want)
		}
	}
}

func TestShrinkToMembersFullSetIsIdentity(t *testing.T) {
	g := communityGraph(t, 7)
	m := &Metis{Seed: 1}
	const k = 4
	parts, err := m.Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ShrinkToMembers(g, parts, k, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for v := range out {
		if out[v] != parts[v] {
			t.Fatalf("node %d moved under the full member set (%d -> %d)", v, parts[v], out[v])
		}
	}
}

func TestShrinkToMembersMultipleDeadSlots(t *testing.T) {
	g := communityGraph(t, 9)
	m := &Metis{Seed: 1}
	const k = 4
	parts, err := m.Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ShrinkToMembers(g, parts, k, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	st, err := ComputeStats(g, out, 2)
	if err != nil {
		t.Fatalf("double-shrink assignment invalid: %v", err)
	}
	for p, sz := range st.Sizes {
		if sz == 0 {
			t.Fatalf("partition %d empty after double shrink: %+v", p, st)
		}
	}
	if _, err := ShrinkToMembers(g, parts, k, []int{1, 4}); err == nil {
		t.Fatal("member slot outside the world accepted")
	}
}

func TestShrinkToMembersErrorNamesTheProblem(t *testing.T) {
	g, parts := pathGraph9()
	_, err := ShrinkToMembers(g, parts, 3, []int{2, 0})
	if err == nil {
		t.Fatal("unsorted member set accepted")
	}
	if got := fmt.Sprint(err); got == "" {
		t.Fatal("empty error")
	}
}
