package elastic

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
)

// growWatcher is a shrunken cohort's open door back to full strength. While
// a k′<k world trains, the lowest live slot keeps a listener on its own
// rendezvous candidate address and answers EJOIN knocks. A knock from a
// non-member slot is a replacement asking to be re-admitted: the watcher
// parks it with ERETRY (the standard "round incomplete, re-probe" answer
// its bootstrap already understands) and fires onGrow exactly once — the
// runner aborts the shrunken mesh, every survivor falls into its recovery
// loop, and the next rendezvous assembles the full cohort, shedding the
// absorbed rows back to their original owner. A knock claiming a live
// member's slot is a duplicate process and gets the same pointed EERR the
// rendezvous itself would give it — but only while the shrunken world is
// actually running: once the grow knock has fired, the mesh is being torn
// down and a member knock is a survivor's re-rendezvous probe racing the
// watcher's shutdown, so it gets ERETRY and finds the real bootstrap on
// its next probe cycle.
//
// growSignal is a test hook: set non-nil to observe the first admit knock
// (owner slot, joiner slot) before the mesh is aborted.
var growSignal func(owner, joiner int)

type growWatcher struct {
	ln     net.Listener
	owner  int
	world  int
	member map[int]bool
	onGrow func(slot int)
	once   sync.Once
	fired  atomic.Bool
	wg     sync.WaitGroup
}

// newGrowWatcher opens the growth listener on addr (the owner's rendezvous
// candidate, just vacated by its bootstrap — retried briefly in case the
// socket is still draining) and starts answering knocks.
func newGrowWatcher(addr string, owner, world int, members []int, onGrow func(slot int)) (*growWatcher, error) {
	var ln net.Listener
	var err error
	for i := 0; i < 10; i++ {
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		return nil, fmt.Errorf("elastic: rank %d: growth listener on %s: %w", owner, addr, err)
	}
	g := &growWatcher{ln: ln, owner: owner, world: world, member: make(map[int]bool, len(members)), onGrow: onGrow}
	for _, m := range members {
		g.member[m] = true
	}
	g.wg.Add(1)
	go g.loop()
	return g, nil
}

func (g *growWatcher) loop() {
	defer g.wg.Done()
	for {
		conn, err := g.ln.Accept()
		if err != nil {
			return
		}
		g.handle(conn)
	}
}

func (g *growWatcher) handle(conn net.Conn) {
	defer conn.Close()
	j, err := comm.ReadJoin(conn, g.world, g.owner)
	if err != nil {
		return // refused with the reason
	}
	if !g.member[j.Slot] {
		g.once.Do(func() {
			// fired is set before onGrow aborts the mesh: any member probe the
			// abort provokes is guaranteed to see it.
			g.fired.Store(true)
			debugf("rank %d: slot %d knocked to rejoin; growing the world back", g.owner, j.Slot)
			if h := growSignal; h != nil {
				h(g.owner, j.Slot)
			}
			g.onGrow(j.Slot)
		})
		comm.Retry(conn)
		return
	}
	if g.fired.Load() {
		// The world is already re-forming; this is a survivor's bootstrap
		// probe landing on the watcher before it closes, not an impostor.
		comm.Retry(conn)
		return
	}
	comm.Refuse(conn, fmt.Sprintf("rank %d is already a live member of the running cohort — two processes claim the same rank", j.Slot))
}

// Close shuts the listener and waits for the accept loop to drain.
func (g *growWatcher) Close() {
	g.ln.Close()
	g.wg.Wait()
}
