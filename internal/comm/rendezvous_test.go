package comm

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRendezvousIgnoresSilentConnection: a connection that reaches the
// rendezvous first and never sends a line is refused once the join-line
// timeout passes, instead of holding rank 0's round until the bootstrap
// deadline: a 2-rank DialTCP with a 10 s timeout completes in under 2 s.
func TestRendezvousIgnoresSilentConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	silent, err := net.Dial("tcp", addr) // first in the accept queue
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()

	begin := time.Now()
	var ts [2]*TCPTransport
	var errs [2]error
	var wg sync.WaitGroup
	for r := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := TCPConfig{Rank: r, World: 2, Rendezvous: addr, Timeout: 10 * time.Second}
			if r == 0 {
				cfg.RendezvousListener = ln
			}
			ts[r], errs[r] = DialTCP(cfg)
		}()
	}
	wg.Wait()
	elapsed := time.Since(begin)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		defer ts[r].Close()
	}
	if elapsed > 2*time.Second {
		t.Fatalf("bootstrap took %v with a silent connection at the rendezvous, want under 2s", elapsed)
	}
	silent.SetReadDeadline(time.Now().Add(5 * time.Second))
	if line, err := bufio.NewReader(silent).ReadString('\n'); !strings.HasPrefix(line, "EERR ") {
		t.Fatalf("the silent connection was answered %q (%v), want EERR", line, err)
	}
}

// FuzzRendezvousLines feeds arbitrary bytes to the join-line reader and to
// the table parser. Neither may panic. A join the reader accepts has its
// slot in [0, world) and not the server's; a table the parser accepts has
// 1..world members with slots ascending in [0, world), an address each; and
// what either accepts encodes to a line that decodes to the same value.
func FuzzRendezvousLines(f *testing.F) {
	const world, self = 4, 0
	f.Fuzz(func(t *testing.T, data []byte) {
		if j, err := readJoin(bufio.NewReader(bytes.NewReader(data)), world, self); err == nil {
			if j.Slot < 0 || j.Slot >= world || j.Slot == self {
				t.Fatalf("accepted join %+v outside [0,%d) or claiming the server's slot %d", j, world, self)
			}
			line := fmt.Sprintf("EJOIN %d %s %d\n", j.Slot, j.Addr, j.Gen) // as Register sends it
			back, err := readJoin(bufio.NewReader(strings.NewReader(line)), world, self)
			if err != nil || back != j {
				t.Fatalf("join %+v re-encodes to %q, which reads back as %+v (%v)", j, line, back, err)
			}
		}
		tbl, err := parseTable(string(data), world)
		if err != nil {
			return
		}
		if m := len(tbl.Members); m < 1 || m > world || len(tbl.Addrs) != m {
			t.Fatalf("accepted table %+v: %d members, %d addresses, world %d", tbl, m, len(tbl.Addrs), world)
		}
		for i, s := range tbl.Members {
			if s < 0 || s >= world || i > 0 && s <= tbl.Members[i-1] {
				t.Fatalf("accepted table %+v: slots not ascending in [0,%d)", tbl, world)
			}
		}
		back, err := parseTable(tbl.line(), world)
		if err != nil || !reflect.DeepEqual(back, tbl) {
			t.Fatalf("table %+v re-encodes to %q, which parses as %+v (%v)", tbl, tbl.line(), back, err)
		}
	})
}
