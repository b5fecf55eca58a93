package elastic

import (
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
)

// freeCandidates reserves world distinct loopback ports and releases them
// for the rendezvous to claim. (Small reuse window; losing it fails loudly.)
func freeCandidates(t testing.TB, world int) []string {
	t.Helper()
	out := make([]string, world)
	lns := make([]net.Listener, world)
	for r := 0; r < world; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[r], out[r] = ln, ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return out
}

// TestBootstrapAgreesOnTableAndMinGen: a healthy cohort converges on one
// table — every rank's address in its slot — and the minimum reported
// checkpoint generation.
func TestBootstrapAgreesOnTableAndMinGen(t *testing.T) {
	const world = 3
	cands := freeCandidates(t, world)
	gens := []int{7, 2, 5}
	tables := make([]*comm.Table, world)
	errs := make([]error, world)
	deadline := time.Now().Add(20 * time.Second)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tables[r], errs[r] = bootstrap(bootConfig{rank: r, world: world, cands: cands, dataAddr: fmt.Sprintf("10.0.0.%d:900%d", r, r), myGen: gens[r], deadline: deadline})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r, tbl := range tables {
		if tbl.StartGen != 2 {
			t.Fatalf("rank %d agreed on gen %d, want min gen 2", r, tbl.StartGen)
		}
		if !reflect.DeepEqual(tbl.Members, []int{0, 1, 2}) {
			t.Fatalf("rank %d members %v, want the full world", r, tbl.Members)
		}
		if !reflect.DeepEqual(tbl.Addrs, tables[0].Addrs) {
			t.Fatalf("tables diverged: rank 0 %v vs rank %d %v", tables[0].Addrs, r, tbl.Addrs)
		}
		if tbl.Addrs[r] != fmt.Sprintf("10.0.0.%d:900%d", r, r) {
			t.Fatalf("rank %d slot holds %q", r, tbl.Addrs[r])
		}
	}
}

// TestBootstrapElectsSuccessorThenDefersToRankZero is the rank-0-death
// drama in miniature: ranks 1 and 2 start with rank 0 absent (dead), rank 1
// is elected interim server, and when the replacement rank 0 finally comes
// up, everyone converges onto it — one table, no wedged partial rendezvous.
func TestBootstrapElectsSuccessorThenDefersToRankZero(t *testing.T) {
	const world = 3
	cands := freeCandidates(t, world)
	tables := make([]*comm.Table, world)
	errs := make([]error, world)
	deadline := time.Now().Add(30 * time.Second)
	var wg sync.WaitGroup
	for r := 1; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tables[r], errs[r] = bootstrap(bootConfig{rank: r, world: world, cands: cands, dataAddr: fmt.Sprintf("addr-%d:1", r), myGen: 3, deadline: deadline})
		}(r)
	}
	// The replacement rank 0 shows up well after rank 1 has started serving.
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(1500 * time.Millisecond)
		tables[0], errs[0] = bootstrap(bootConfig{rank: 0, world: world, cands: cands, dataAddr: "addr-0:1", myGen: 0, deadline: deadline})
	}()
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r, tbl := range tables {
		if tbl.StartGen != 0 {
			t.Fatalf("rank %d agreed on gen %d; the fresh replacement holds nothing, so min is 0", r, tbl.StartGen)
		}
		if !reflect.DeepEqual(tbl.Addrs, []string{"addr-0:1", "addr-1:1", "addr-2:1"}) {
			t.Fatalf("rank %d table %v", r, tbl.Addrs)
		}
	}
}

// TestBootstrapWorldOfOne needs no sockets at all.
func TestBootstrapWorldOfOne(t *testing.T) {
	tbl, err := bootstrap(bootConfig{rank: 0, world: 1, cands: []string{"unused:1"}, dataAddr: "me:2", myGen: 4, deadline: time.Now().Add(time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.StartGen != 4 || len(tbl.Addrs) != 1 || tbl.Addrs[0] != "me:2" {
		t.Fatalf("world-of-one table %+v", tbl)
	}
}

// TestBootstrapRejectsBadCandidateSet: a candidate list that disagrees with
// the world size is a misconfiguration, not something to retry.
func TestBootstrapRejectsBadCandidateSet(t *testing.T) {
	if _, err := bootstrap(bootConfig{rank: 0, world: 3, cands: []string{"a:1"}, dataAddr: "me:2", deadline: time.Now().Add(time.Second)}); err == nil {
		t.Fatal("short candidate list must be rejected")
	}
}

// TestBootstrapDeadlineSurfacesPointedError: an incomplete cohort (world 2,
// only one rank) must give up at the deadline with an error naming the
// situation, not hang.
func TestBootstrapDeadlineSurfacesPointedError(t *testing.T) {
	cands := freeCandidates(t, 2)
	_, err := bootstrap(bootConfig{rank: 0, world: 2, cands: cands, dataAddr: "me:2", deadline: time.Now().Add(2 * time.Second)})
	if err == nil {
		t.Fatal("lone rank completed a world-2 rendezvous")
	}
}

// TestBootstrapIgnoresSilentConnection: a connection that reaches the
// serving candidate first and never sends a line is refused once the
// join-line timeout passes; it does not hold the round until the round
// times out. A world-2 bootstrap completes in under 2 s.
func TestBootstrapIgnoresSilentConnection(t *testing.T) {
	cands := freeCandidates(t, 2)
	deadline := time.Now().Add(20 * time.Second)
	begin := time.Now()
	tables := make([]*comm.Table, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	boot := func(r int) {
		defer wg.Done()
		tables[r], errs[r] = bootstrap(bootConfig{rank: r, world: 2, cands: cands, dataAddr: fmt.Sprintf("addr-%d:1", r), deadline: deadline})
	}
	wg.Add(2)
	go boot(0)
	// Rank 0 serves on its candidate at once; the silent connection reaches
	// its round before rank 1 starts.
	var silent net.Conn
	for {
		c, err := net.Dial("tcp", cands[0])
		if err == nil {
			silent = c
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rank 0 never listened on %s: %v", cands[0], err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	defer silent.Close()
	go boot(1)
	wg.Wait()
	elapsed := time.Since(begin)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if !reflect.DeepEqual(tables[0].Addrs, []string{"addr-0:1", "addr-1:1"}) || !reflect.DeepEqual(tables[1].Addrs, tables[0].Addrs) {
		t.Fatalf("tables %v and %v, want both [addr-0:1 addr-1:1]", tables[0].Addrs, tables[1].Addrs)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("bootstrap took %v with a silent connection at the serving candidate, want under 2s", elapsed)
	}
}
