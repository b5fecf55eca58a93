package comm

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"unsafe"
)

// Wire codec for the TCP transport. Every frame is a fixed 12-byte
// little-endian header followed by the payload:
//
//	offset 0: uint32 tag, below 2³¹
//	offset 4: uint8  dtype (dtypeF32 or dtypeCtrl)
//	offset 5: three reserved bytes, must be zero
//	offset 8: uint32 nelems — number of 4-byte payload elements
//
// The header carries an element count rather than a byte length so a frame
// can never describe a payload that is not a multiple of the element size,
// and nelems is capped at maxFrameElems so a corrupt or hostile header
// cannot make the reader allocate unboundedly. Decoding rejects truncated
// input, oversized lengths, tags of 2³¹ and above, unknown dtypes, and
// non-zero reserved bytes with errors — never panics — which
// FuzzFrameRoundTrip exercises. Every payload is float32 rows: dtype 1, the
// int32 payloads of older builds, is unknown. Which tags each dtype may use
// is the demux's check (readLoop).
//
// A float32 payload is never encoded or decoded element by element: the
// sender gathers its rows straight into a float32 view of the outgoing
// frame's payload region (TCPTransport.SendBufF32), and the receiver reads a
// view of the incoming frame's payload (RecvF32). The views hold host-order
// floats over little-endian wire bytes — the same bytes on a little-endian
// host; swapF32LE converts them in place on any other.

const (
	frameHeaderSize = 12
	maxFrameElems   = 1 << 28 // 1 GiB of payload

	dtypeF32  byte = 0
	dtypeCtrl byte = 2 // transport-internal: barrier, goodbye, heartbeat
)

// frame is one decoded wire message. payload holds the raw little-endian
// element bytes (len = 4·nelems).
type frame struct {
	tag     int
	dtype   byte
	payload []byte
}

// encodeFrameHeader validates and appends the 12-byte header.
func encodeFrameHeader(dst []byte, tag int, dtype byte, nelems int) ([]byte, error) {
	if tag < 0 || int64(tag) > math.MaxInt32 {
		return dst, fmt.Errorf("comm: frame tag %d outside [0,2^31)", tag)
	}
	if dtype != dtypeF32 && dtype != dtypeCtrl {
		return dst, fmt.Errorf("comm: unknown frame dtype %d", dtype)
	}
	if nelems < 0 || nelems > maxFrameElems {
		return dst, fmt.Errorf("comm: frame length %d elements exceeds cap %d", nelems, maxFrameElems)
	}
	var h [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(h[0:], uint32(tag))
	h[4] = dtype
	binary.LittleEndian.PutUint32(h[8:], uint32(nelems))
	return append(dst, h[:]...), nil
}

// appendFrameBytes appends a whole frame whose payload is already serialized
// (len must be a multiple of 4).
func appendFrameBytes(dst []byte, tag int, dtype byte, payload []byte) ([]byte, error) {
	if len(payload)%4 != 0 {
		return dst, fmt.Errorf("comm: frame payload %d bytes is not element-aligned", len(payload))
	}
	dst, err := encodeFrameHeader(dst, tag, dtype, len(payload)/4)
	if err != nil {
		return dst, err
	}
	return append(dst, payload...), nil
}

// parseFrameHeader validates a 12-byte header and returns (tag, dtype,
// nelems).
func parseFrameHeader(h []byte) (int, byte, int, error) {
	if len(h) < frameHeaderSize {
		return 0, 0, 0, fmt.Errorf("comm: truncated frame header: %d of %d bytes", len(h), frameHeaderSize)
	}
	// A tag ≥ 2³¹ would turn negative as a 32-bit int and pass for an
	// application tag.
	tag := binary.LittleEndian.Uint32(h[0:])
	if tag > math.MaxInt32 {
		return 0, 0, 0, fmt.Errorf("comm: frame tag %d outside [0,2^31)", tag)
	}
	dtype := h[4]
	if dtype != dtypeF32 && dtype != dtypeCtrl {
		return 0, 0, 0, fmt.Errorf("comm: unknown frame dtype %d", dtype)
	}
	if h[5] != 0 || h[6] != 0 || h[7] != 0 {
		return 0, 0, 0, fmt.Errorf("comm: non-zero reserved bytes in frame header")
	}
	// Compare as uint32: on 32-bit platforms int(n) would wrap negative for
	// n ≥ 2³¹ and slip past a signed bound check into a panicking make.
	n := binary.LittleEndian.Uint32(h[8:])
	if n > maxFrameElems {
		return 0, 0, 0, fmt.Errorf("comm: frame length %d elements exceeds cap %d", n, maxFrameElems)
	}
	return int(tag), dtype, int(n), nil
}

// decodeFrame parses one frame from the front of b, returning the frame and
// the number of bytes consumed. The frame's payload aliases b. Truncated or
// malformed input yields an error, never a panic.
func decodeFrame(b []byte) (frame, int, error) {
	tag, dtype, nelems, err := parseFrameHeader(b)
	if err != nil {
		return frame{}, 0, err
	}
	need := frameHeaderSize + 4*nelems
	if len(b) < need {
		return frame{}, 0, fmt.Errorf("comm: truncated frame payload: %d of %d bytes", len(b)-frameHeaderSize, 4*nelems)
	}
	return frame{tag: tag, dtype: dtype, payload: b[frameHeaderSize:need]}, need, nil
}

// readFrame reads one frame from r, drawing the payload buffer from pool; the
// frame's consumer returns it once done with it. A frame rejected after its
// buffer was drawn (a truncated payload) puts the buffer straight back.
func readFrame(r io.Reader, pool *bufPool[byte]) (frame, error) {
	var h [frameHeaderSize]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return frame{}, err
	}
	tag, dtype, nelems, err := parseFrameHeader(h[:])
	if err != nil {
		return frame{}, err
	}
	payload := pool.get(4 * nelems)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		pool.put(payload)
		return frame{}, err
	}
	return frame{tag: tag, dtype: dtype, payload: payload}, nil
}

// nativeLittleEndian reports whether host-order float32s are already the
// wire's little-endian bytes.
var nativeLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// swapF32LE converts a float32 payload in place between host order and the
// wire's little-endian order — one byte swap per element, which is its own
// inverse, so senders and receivers call the same helper. A no-op on
// little-endian hosts.
func swapF32LE(b []byte) {
	if nativeLittleEndian {
		return
	}
	for i := 0; i+4 <= len(b); i += 4 {
		b[i], b[i+1], b[i+2], b[i+3] = b[i+3], b[i+2], b[i+1], b[i]
	}
}

// f32View reinterprets a payload's bytes as float32s without copying: the
// view has len(b)/4 elements and cap(b)/4 capacity, so bytesOfF32 recovers
// the whole buffer from it. A buffer too small to hold one element views as
// nil. A payload that is not 4-byte aligned, or not a whole number of
// elements, panics rather than being read as garbage: pooled frame buffers
// never are, so it is a bug in whoever built the slice.
func f32View(b []byte) []float32 {
	if cap(b) < 4 {
		return nil
	}
	p := unsafe.Pointer(unsafe.SliceData(b))
	if uintptr(p)%4 != 0 || len(b)%4 != 0 {
		panic(fmt.Sprintf("comm: a %d-byte payload at %p is not a 4-byte-aligned run of float32s", len(b), p))
	}
	return unsafe.Slice((*float32)(p), cap(b)/4)[:len(b)/4]
}

// bytesOfF32 is f32View's inverse: the bytes under a view, with its length
// and capacity in bytes; nil for a view with no capacity.
func bytesOfF32(f []float32) []byte {
	if cap(f) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(f))), 4*cap(f))[:4*len(f)]
}

// frameOfF32 returns the whole outgoing frame — header room and payload —
// under a view TCPTransport.SendBufF32 lent, which starts frameHeaderSize
// bytes into its buffer. Only such a view may be passed.
func frameOfF32(buf []float32) []byte {
	if cap(buf) == 0 {
		panic("comm: ISendBufF32 was handed a buffer SendBufF32 did not lend")
	}
	p := unsafe.Add(unsafe.Pointer(unsafe.SliceData(buf)), -frameHeaderSize)
	return unsafe.Slice((*byte)(p), frameHeaderSize+4*cap(buf))[:frameHeaderSize+4*len(buf)]
}
