package comm

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// specials are the float32 bit patterns a payload codec most easily gets
// wrong: both zeros, both infinities, quiet NaNs with and without a payload,
// the smallest and largest denormals, and the largest finite values.
var specials = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	float32(math.NaN()), math.Float32frombits(0x7fc00001), math.Float32frombits(0xffbfffff),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, math.Float32frombits(0x007fffff),
	math.MaxFloat32, -math.MaxFloat32, 1, -1.5,
}

func sameBits(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}

// rawPeer meshes rank 0 of a two-rank TCP world with a connection the test
// holds as rank 1: what rank 0 puts on the socket can be read off far byte
// for byte, and frames written into far reach rank 0's demux as rank 1's.
func rawPeer(t *testing.T) (tr *TCPTransport, far net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		var err error
		tr, err = DialTCPMesh(TCPConfig{Rank: 0, World: 2, Timeout: 10 * time.Second}, ln, []string{ln.Addr().String(), ""})
		errc <- err
	}()
	far, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Fprintf(far, "PEER 1\n"); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	far.SetDeadline(time.Now().Add(10 * time.Second))
	t.Cleanup(func() {
		tr.Close()
		far.Close()
	})
	return tr, far
}

// TestLentSendWireBytesMatchReference: a payload gathered into a buffer
// SendBufF32 lent goes on the socket as exactly the bytes the
// element-by-element reference encoder produces, header included — at every
// length from empty to all of specials, and through a Worker's copying
// ISendF32 and SendF32 too.
func TestLentSendWireBytesMatchReference(t *testing.T) {
	tr, far := rawPeer(t)
	check := func(what string, tag int, payload []float32, send func()) {
		t.Helper()
		want, err := appendFrameF32(nil, tag, payload)
		if err != nil {
			t.Fatal(err)
		}
		send()
		got := make([]byte, len(want))
		if _, err := io.ReadFull(far, got); err != nil {
			t.Fatalf("%s: reading the frame off the socket: %v", what, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: socket bytes\n% x\nwant\n% x", what, got, want)
		}
	}
	for n := 0; n <= len(specials); n++ {
		payload := specials[:n]
		check(fmt.Sprintf("lent buffer, %d elements", n), 40+n, payload, func() {
			buf := tr.SendBufF32(n)
			copy(buf, payload)
			tr.ISendBufF32(1, 40+n, buf)
		})
	}
	check("ISendF32", 99, specials, func() { NewWorker(tr).ISendF32(1, 99, specials) })
	check("SendF32", 98, specials, func() { NewWorker(tr).SendF32(1, 98, specials) })
}

// TestRecvF32ViewMatchesReference: the payload RecvF32 lends is, bit for bit,
// what the reference decoder reads out of the same wire bytes.
func TestRecvF32ViewMatchesReference(t *testing.T) {
	tr, far := rawPeer(t)
	for n := 0; n <= len(specials); n++ {
		frame, err := appendFrameF32(nil, 7, specials[:n])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := far.Write(frame); err != nil {
			t.Fatal(err)
		}
		got := tr.RecvF32(1, 7)
		if want := payloadF32(frame[frameHeaderSize:]); !sameBits(got, want) {
			t.Fatalf("%d elements: RecvF32 = %v, the reference decodes %v", n, got, want)
		}
		tr.RecycleF32(got)
	}
}

// TestCallerSliceFreeAfterISendF32: on both backends a caller's slice is
// free once ISendF32 (or SendF32) returns — overwriting it before the
// receiver reads does not change what arrives. The barrier orders the
// overwrite before the receive.
func TestCallerSliceFreeAfterISendF32(t *testing.T) {
	for _, b := range []struct {
		name string
		mk   func() *Group
	}{
		{"chan", func() *Group { return New(2, 0) }},
		{"tcp", func() *Group { return tcpGroup(t, 2) }},
	} {
		g := b.mk()
		g.Run(func(w *Worker) {
			if w.Rank() == 0 {
				data := slices.Clone(specials)
				w.ISendF32(1, 3, data)
				clear(data)
				w.SendF32(1, 4, data)
				for i := range data {
					data[i] = -7
				}
				w.Barrier()
				return
			}
			w.Barrier()
			if got := w.RecvF32(0, 3); !sameBits(got, specials) {
				t.Errorf("%s: ISendF32 delivered %v after the sender overwrote its slice, want %v", b.name, got, specials)
			}
			if got := w.RecvF32(0, 4); !sameBits(got, make([]float32, len(specials))) {
				t.Errorf("%s: SendF32 delivered %v after the sender overwrote its slice, want zeros", b.name, got)
			}
		})
		if err := g.Close(); err != nil {
			t.Fatalf("%s: close: %v", b.name, err)
		}
	}
}

// TestRecycledPayloadIsLentAgain: a payload handed back with RecycleF32 is
// the buffer the transport hands out next for that size — on the channel
// backend as a send buffer (sender and receiver share the cluster's pool),
// on TCP as the next incoming frame of the size.
func TestRecycledPayloadIsLentAgain(t *testing.T) {
	same := func(a, b []float32) bool { return unsafe.SliceData(a) == unsafe.SliceData(b) }

	g := New(2, 0)
	w0, w1 := g.Worker(0), g.Worker(1)
	w0.SendF32(1, 1, specials)
	got := w1.RecvF32(0, 1)
	w1.RecycleF32(got)
	if buf := w0.SendBufF32(len(specials)); !same(buf, got) {
		t.Error("chan: the recycled payload was not the next buffer lent")
	}

	ts := loopbackTransports(t, 2)
	ts[0].SendF32(1, 1, specials)
	first := ts[1].RecvF32(0, 1)
	ts[1].RecycleF32(first)
	ts[0].SendF32(1, 1, specials)
	if second := ts[1].RecvF32(0, 1); !same(first, second) {
		t.Error("tcp: the recycled payload did not receive the next frame of its size")
	} else if !sameBits(second, specials) {
		t.Errorf("tcp: the reused frame holds %v, want %v", second, specials)
	}
}

// TestMisalignedViewPanics: a byte run that cannot be a float32 payload —
// off a 4-byte boundary, or not a whole number of elements — panics with a
// message that says so instead of being read as garbage.
func TestMisalignedViewPanics(t *testing.T) {
	raw := make([]byte, 64)
	for _, c := range []struct {
		name string
		b    []byte
	}{
		{"misaligned", raw[1:33]},
		{"ragged", raw[:10]},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "not a 4-byte-aligned run of float32s") {
					t.Errorf("%s: f32View panicked with %q, want the alignment message", c.name, msg)
				}
			}()
			f32View(c.b)
		}()
	}
}

// TestDemuxRefusesFramesOffProtocol: a float32 frame belongs on an
// application tag and a control frame on a reserved one, and dtype 1 (the
// int32 frames of older builds) no longer exists. A peer that sends anything
// else — here over a real socket — fails the transport with a
// *TransportError naming that peer: a RecvF32 blocked on it panics with the
// error instead of hanging, and the demux goroutine records the failure
// rather than panicking itself.
func TestDemuxRefusesFramesOffProtocol(t *testing.T) {
	int32Frame := []byte{2, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 7, 0, 0, 0} // tag 2, dtype 1, one element
	ctrlOnApp, err := appendFrameBytes(nil, 5, dtypeCtrl, nil)
	if err != nil {
		t.Fatal(err)
	}
	f32OnReserved, err := appendFrameF32(nil, tagBarrierEnter, []float32{1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		frame []byte
		cause string
	}{
		{"int32 frame", int32Frame, "unknown frame dtype 1"},
		{"control frame on an application tag", ctrlOnApp, "dtype 2 on tag 5"},
		{"float32 frame on a reserved tag", f32OnReserved, fmt.Sprintf("dtype 0 on tag %d", tagBarrierEnter)},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr, far := rawPeer(t)
			got := make(chan any, 1)
			go func() {
				defer func() { got <- recover() }()
				tr.RecvF32(1, 5)
			}()
			if _, err := far.Write(c.frame); err != nil {
				t.Fatal(err)
			}
			select {
			case p := <-got:
				te, ok := p.(*TransportError)
				if !ok {
					t.Fatalf("RecvF32 panicked with %v (%T), want a *TransportError", p, p)
				}
				for _, want := range []string{"peer 1 broke the protocol", c.cause} {
					if !strings.Contains(te.Error(), want) {
						t.Errorf("transport error %q does not say %q", te, want)
					}
				}
			case <-time.After(10 * time.Second):
				t.Fatal("RecvF32 hung after the peer broke the protocol")
			}
			if err := tr.Err(); err == nil || !strings.Contains(err.Error(), "peer 1") {
				t.Fatalf("the transport recorded %v, want the failure naming peer 1", err)
			}
		})
	}
}
