package comm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// appendFrameF32 is the reference float32 frame encoder: the header, then
// every element's bits little-endian, one at a time. The transport never
// encodes this way (it gathers into the frame's payload region); the tests
// hold what it sends against this.
func appendFrameF32(dst []byte, tag int, data []float32) ([]byte, error) {
	dst, err := encodeFrameHeader(dst, tag, dtypeF32, len(data))
	if err != nil {
		return dst, err
	}
	for _, v := range data {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
	}
	return dst, nil
}

// payloadF32 is the reference float32 payload decoder, element by element.
func payloadF32(b []byte) []float32 {
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

func TestFrameF32BitExactRoundTrip(t *testing.T) {
	in := []float32{0, -0, 1.5, float32(math.Inf(1)), float32(math.NaN()), math.SmallestNonzeroFloat32}
	enc, err := appendFrameF32(nil, 123, in)
	if err != nil {
		t.Fatal(err)
	}
	fr, n, err := decodeFrame(enc)
	if err != nil || n != len(enc) {
		t.Fatalf("decode: n=%d err=%v", n, err)
	}
	if fr.tag != 123 || fr.dtype != dtypeF32 {
		t.Fatalf("header round-trip: %+v", fr)
	}
	out := payloadF32(fr.payload)
	for i := range in {
		if math.Float32bits(in[i]) != math.Float32bits(out[i]) {
			t.Fatalf("elem %d: %x != %x", i, math.Float32bits(in[i]), math.Float32bits(out[i]))
		}
	}
}

// allIdle reports whether every buffer pool has made is back on its free
// lists.
func allIdle(pool *bufPool[byte]) bool {
	made, idle := 0, 0
	for c := range pool.free {
		made += pool.made[c]
		idle += len(pool.free[c])
	}
	return made == idle
}

// TestReadFrameMatchesDecodeFrame: the socket reader and the slice decoder
// agree, and a frame the reader rejects after drawing its payload buffer — a
// truncated payload — hands the buffer back to the pool.
func TestReadFrameMatchesDecodeFrame(t *testing.T) {
	enc, err := appendFrameBytes(nil, 9, dtypeF32, []byte{1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	var pool bufPool[byte]
	if _, err := readFrame(bytes.NewReader(enc[:len(enc)-1]), &pool); err == nil {
		t.Fatal("readFrame accepted a truncated payload")
	}
	if !allIdle(&pool) || pool.made == [33]int{} {
		t.Fatal("the rejected frame's payload buffer did not go back to the pool")
	}
	fr, err := readFrame(bytes.NewReader(enc), &pool)
	if err != nil {
		t.Fatal(err)
	}
	fr2, _, err := decodeFrame(enc)
	if err != nil {
		t.Fatal(err)
	}
	if fr.tag != fr2.tag || fr.dtype != fr2.dtype || !bytes.Equal(fr.payload, fr2.payload) {
		t.Fatalf("readFrame %+v != decodeFrame %+v", fr, fr2)
	}
}

func TestFrameRejectsMalformedInput(t *testing.T) {
	if _, err := appendFrameBytes(nil, -1, dtypeF32, nil); err == nil {
		t.Fatal("negative tag accepted")
	}
	if _, err := appendFrameBytes(nil, math.MaxInt32, dtypeF32, nil); err != nil {
		t.Fatalf("tag 2^31-1 refused: %v", err)
	}
	if _, err := appendFrameBytes(nil, 0, 99, nil); err == nil {
		t.Fatal("unknown dtype accepted")
	}
	if _, err := appendFrameBytes(nil, 0, dtypeF32, make([]byte, 6)); err == nil {
		t.Fatal("unaligned payload accepted")
	}
	valid, _ := appendFrameF32(nil, 1, []float32{1, 2})
	oversize := slices.Clone(valid)
	binary.LittleEndian.PutUint32(oversize[8:], maxFrameElems+1)
	if _, _, err := decodeFrame(oversize); err == nil {
		t.Fatal("oversized frame length accepted")
	}
	wide := slices.Clone(valid)
	binary.LittleEndian.PutUint32(wide[0:], 1<<31)
	if _, _, err := decodeFrame(wide); err == nil {
		t.Fatal("tag 2^31 accepted")
	}
	reserved := slices.Clone(valid)
	reserved[5] = 1
	if _, _, err := decodeFrame(reserved); err == nil {
		t.Fatal("non-zero reserved byte accepted")
	}
}

// FuzzFrameRoundTrip asserts the codec's two contracts under arbitrary
// input: every encodable frame decodes back to identical bits, and every
// byte string — truncated frames, oversized lengths, garbage, a dtype no
// frame carries — is rejected with an error, never a panic or an over-read.
// The dtype argument's low bit picks one of the two dtypes a frame may carry;
// the whole byte, written into a valid header, must decode exactly when it
// is one of them. A tag of 2³¹ or more (the MaxUint32 seed) is outside the
// tag domain: the encoder refuses it and so does the decoder, in a header
// that is otherwise valid; the rest of the run takes the tag's low 31 bits.
// The last seed is an evaluation count frame of the int32 dtype (1) older
// builds sent, which must be refused as unknown.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint32(0), byte(0), []byte{})
	f.Add(uint32(910), byte(1), []byte{1, 2, 3, 4})
	f.Add(uint32(tagBye), byte(2), make([]byte, 64))
	f.Add(uint32(math.MaxUint32), byte(0), []byte{0xff, 0xff, 0xff, 0xff})
	f.Add(uint32(2), byte(1), []byte{7, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, tag uint32, dtype byte, raw []byte) {
		payload := raw[:len(raw)/4*4]
		kind := []byte{dtypeF32, dtypeCtrl}[dtype%2]
		if tag > math.MaxInt32 {
			if _, err := appendFrameBytes(nil, int(tag), kind, payload); err == nil {
				t.Fatalf("tag %d encoded", tag)
			}
			hdr, err := appendFrameBytes(nil, 0, kind, payload)
			if err != nil {
				t.Fatalf("encoding a valid frame failed: %v", err)
			}
			binary.LittleEndian.PutUint32(hdr[0:], tag)
			if _, _, err := decodeFrame(hdr); err == nil {
				t.Fatalf("tag %d decoded", tag)
			}
			tag &= math.MaxInt32
		}
		enc, err := appendFrameBytes(nil, int(tag), kind, payload)
		if err != nil {
			t.Fatalf("encoding a valid frame failed: %v", err)
		}
		fr, n, err := decodeFrame(enc)
		if err != nil {
			t.Fatalf("round-trip decode failed: %v", err)
		}
		if n != len(enc) || fr.tag != int(tag) || fr.dtype != kind || !bytes.Equal(fr.payload, payload) {
			t.Fatalf("round trip mismatch: consumed %d of %d, got %+v", n, len(enc), fr)
		}

		// The raw dtype byte in an otherwise valid header: the decoder and
		// the encoder take exactly the two dtypes, and refuse any other as
		// unknown.
		other := slices.Clone(enc)
		other[4] = dtype
		_, _, decErr := decodeFrame(other)
		_, encErr := appendFrameBytes(nil, int(tag), dtype, payload)
		unknown := fmt.Sprintf("unknown frame dtype %d", dtype)
		for _, err := range []error{decErr, encErr} {
			if dtype == dtypeF32 || dtype == dtypeCtrl {
				if err != nil {
					t.Fatalf("dtype %d refused: %v", dtype, err)
				}
			} else if err == nil || !strings.Contains(err.Error(), unknown) {
				t.Fatalf("dtype %d: got error %v, want %q", dtype, err, unknown)
			}
		}

		// Any strict prefix is truncated and must be rejected, not panic.
		for _, cut := range []int{0, 1, frameHeaderSize - 1, len(enc) - 1} {
			if cut < 0 || cut >= len(enc) {
				continue
			}
			if _, _, err := decodeFrame(enc[:cut]); err == nil {
				t.Fatalf("truncation to %d of %d bytes accepted", cut, len(enc))
			}
			var pool bufPool[byte]
			if _, err := readFrame(bytes.NewReader(enc[:cut]), &pool); err == nil {
				t.Fatalf("readFrame accepted truncation to %d bytes", cut)
			}
			if !allIdle(&pool) {
				t.Fatalf("readFrame kept the payload buffer of a frame truncated to %d bytes", cut)
			}
		}

		// A length field pointing past the cap must be rejected before any
		// allocation happens.
		oversize := slices.Clone(enc)
		binary.LittleEndian.PutUint32(oversize[8:], maxFrameElems+1)
		if _, _, err := decodeFrame(oversize); err == nil {
			t.Fatal("oversized length accepted")
		}

		// Raw fuzz bytes interpreted as a frame: any outcome but a panic, and
		// a payload buffer is either returned with the frame or back in the
		// pool.
		decodeFrame(raw)
		var pool bufPool[byte]
		if fr, err := readFrame(bytes.NewReader(raw), &pool); err == nil {
			pool.put(fr.payload)
		}
		if !allIdle(&pool) {
			t.Fatal("readFrame lost a payload buffer")
		}
	})
}
