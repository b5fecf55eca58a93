package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"

	"repro/internal/tensor"
)

// The checkpoint container. Every checkpoint this repo writes — a model's
// weights, or one rank's full resumable trainer state — is one little-endian
// layout, written by Checkpoint.Encode and read by DecodeCheckpoint only:
//
//	frame    magic "BNST" u32 · version u32 · kind u32 (1 model, 2 trainer)
//	model    arch str · layers, hidden, inDim, outDim u64 · nParams u64 ·
//	         nParams × mat
//	resume   (kind 2 only) epoch u64 · strategy str · strategy RNG state u64 ·
//	         nDropouts u64 · nDropouts × mask RNG state u64 · Adam step u64 ·
//	         nParams × mat (first moments) · nParams × mat (second moments)
//	trailer  CRC-32 (IEEE) u32 of every preceding byte
//
// with str = length u64 (≤ 64) · bytes and mat = rows u64 · cols u64 ·
// rows·cols float32. The resume section is what a bit-exact resume needs
// beyond the weights (a weights-only reload resets Adam and rewinds the
// sampling and dropout streams, so the run diverges — the resume-equivalence
// test pins both directions), and it names the sampling strategy, because
// resuming under another one would silently train a different estimator.
//
// CRC first: the frame — magic, version, checksum of the whole file — is
// checked before a single length word is believed, so a torn or bit-rotted
// file makes elastic recovery fall back a generation and stops the server
// at startup, rather than either acting on garbage. A CRC only catches
// accidents, so the parse trusts nothing either: every count, string length
// and matrix size is bounded by the bytes that remain before anything is
// allocated, and the model the header describes must fit in the file —
// decoding, and building that model, allocate O(len(file)).
//
// In memory: a trainer checkpoint is ~110 KB, the CRC has to see every byte
// before any is used, and a decoded Checkpoint that is not yet live state is
// what lets a load validate everything against the trainer and only then
// commit. The file entry points read and write that one buffer.

const (
	ckptMagic   = uint32(0x424E5354) // "BNST"
	ckptVersion = uint32(4)
	kindModel   = uint32(1)
	kindTrainer = uint32(2)

	// Bounds on what a header may claim. They keep every product the decoder
	// forms inside a uint64; the real limit is always the bytes that remain.
	maxCkptName   = 64
	maxCkptLayers = 1 << 10
	maxCkptDim    = 1 << 24 // hidden, inDim, outDim
	maxCkptMatDim = 1 << 30 // rows or cols of one stored matrix
)

var le = binary.LittleEndian

// Checkpoint is a decoded (or about-to-be-encoded) container: the model
// header and parameters, plus the resume section when it is a trainer's.
type Checkpoint struct {
	Arch                          Arch
	Layers, Hidden, InDim, OutDim int
	Params                        []*tensor.Matrix
	Resume                        *ResumeState // nil in a weights-only checkpoint
}

// ResumeState is everything beyond the weights that train(N) ≡ train(k) +
// save + load + train(N−k) needs, bit for bit. What a restore reads back is
// the same on every rank — the epoch, the strategy name and the Adam state —
// so any rank's checkpoint of an epoch resumes every rank of it.
type ResumeState struct {
	Epoch    int
	Strategy string
	// StrategyState is the rank's sampling stream where the next epoch's
	// draws begin, and Dropouts each layer's mask stream position. Both are
	// written but not read back: they are functions of the epoch (the
	// sample of (SampleSeed, rank, Epoch), a mask stream of its start word
	// and the rank's row count), so a restored rank draws as its own rank at
	// the restored epoch, whichever rank wrote the file. Restore checks the
	// dropout count against the model.
	StrategyState uint64
	Dropouts      []uint64
	AdamStep      int
	AdamM, AdamV  []*tensor.Matrix // aligned with Params
}

// snapshotModel describes m as a weights-only checkpoint. The parameters are
// aliased, not copied: encode before training on.
func snapshotModel(m *Model) *Checkpoint {
	return &Checkpoint{
		Arch: m.Config.Arch, Layers: m.Config.Layers, Hidden: m.Config.Hidden,
		InDim: m.InDim, OutDim: m.OutDim, Params: m.Params(),
	}
}

// snapshotTrainer describes rank rt's full resumable state, aliased likewise.
func snapshotTrainer(rt *RankTrainer) *Checkpoint {
	c := snapshotModel(rt.Model)
	stream := rt.samp.stream(rt.epoch)
	rs := &ResumeState{
		Epoch:         rt.epoch,
		Strategy:      rt.Cfg.Strategy.String(),
		StrategyState: stream.State(),
		AdamStep:      rt.opt.StepCount(),
	}
	for _, d := range rt.Model.Dropouts {
		rs.Dropouts = append(rs.Dropouts, d.RNGState())
	}
	rs.AdamM, rs.AdamV = rt.opt.Moments(c.Params)
	c.Resume = rs
	return c
}

// Encode serializes c. It is the one writer of the container layout.
func (c *Checkpoint) Encode() []byte {
	var b []byte
	u64 := func(v int) { b = le.AppendUint64(b, uint64(v)) }
	str := func(s string) {
		u64(len(s))
		b = append(b, s...)
	}
	mats := func(ms []*tensor.Matrix) {
		for _, m := range ms {
			u64(m.Rows)
			u64(m.Cols)
			off := len(b)
			b = append(b, make([]byte, 4*len(m.Data))...)
			for i, f := range m.Data {
				le.PutUint32(b[off+4*i:], math.Float32bits(f))
			}
		}
	}

	kind := kindModel
	if c.Resume != nil {
		kind = kindTrainer
	}
	b = le.AppendUint32(b, ckptMagic)
	b = le.AppendUint32(b, ckptVersion)
	b = le.AppendUint32(b, kind)
	str(string(c.Arch))
	u64(c.Layers)
	u64(c.Hidden)
	u64(c.InDim)
	u64(c.OutDim)
	u64(len(c.Params))
	mats(c.Params)
	if rs := c.Resume; rs != nil {
		u64(rs.Epoch)
		str(rs.Strategy)
		b = le.AppendUint64(b, rs.StrategyState)
		u64(len(rs.Dropouts))
		for _, d := range rs.Dropouts {
			b = le.AppendUint64(b, d)
		}
		u64(rs.AdamStep)
		mats(rs.AdamM)
		mats(rs.AdamV)
	}
	return le.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// checkFrame is the first thing done with checkpoint bytes from outside the
// program: right magic, a version this build reads, a trailing CRC matching
// everything before it. It returns the kind and the sections in between.
func checkFrame(b []byte) (kind uint32, body []byte, err error) {
	if len(b) < 16 {
		return 0, nil, fmt.Errorf("core: %d bytes is too short to be a checkpoint", len(b))
	}
	if magic := le.Uint32(b); magic != ckptMagic {
		return 0, nil, fmt.Errorf("core: bad checkpoint magic %#x", magic)
	}
	if ver := le.Uint32(b[4:]); ver != ckptVersion {
		return 0, nil, fmt.Errorf("core: checkpoint version %d, this build reads %d", ver, ckptVersion)
	}
	end := len(b) - 4
	if stored, sum := le.Uint32(b[end:]), crc32.ChecksumIEEE(b[:end]); stored != sum {
		return 0, nil, fmt.Errorf("core: checkpoint checksum mismatch (stored %#x, computed %#x): truncated or corrupted file", stored, sum)
	}
	return le.Uint32(b[8:]), b[12:end], nil
}

// cursor reads the sections of a frame-checked checkpoint. The first failure
// sticks and later reads return zero values, so the decoder reads straight
// through and checks err once. Nothing it returns outsizes the bytes it had.
type cursor struct {
	b   []byte
	err error
}

func (c *cursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("core: checkpoint "+format, args...)
	}
}

// take consumes the next n bytes.
func (c *cursor) take(n uint64, what string) []byte {
	if c.err == nil && n > uint64(len(c.b)) {
		c.fail("%s needs %d bytes, %d remain", what, n, len(c.b))
	}
	if c.err != nil {
		return nil
	}
	out := c.b[:n]
	c.b = c.b[n:]
	return out
}

func (c *cursor) u64(what string) uint64 {
	if p := c.take(8, what); p != nil {
		return le.Uint64(p)
	}
	return 0
}

// count reads a word that must not exceed limit.
func (c *cursor) count(what string, limit uint64) int {
	n := c.u64(what)
	if n > limit {
		c.fail("%s %d exceeds %d", what, n, limit)
		return 0
	}
	return int(n)
}

func (c *cursor) str(what string) string {
	return string(c.take(uint64(c.count(what+" length", maxCkptName)), what))
}

// mats reads n matrices; the caller has bounded n by the bytes remaining.
func (c *cursor) mats(n int, what string) []*tensor.Matrix {
	out := make([]*tensor.Matrix, 0, n)
	for i := 0; i < n && c.err == nil; i++ {
		rows, cols := c.count(what+" rows", maxCkptMatDim), c.count(what+" cols", maxCkptMatDim)
		raw := c.take(4*uint64(rows)*uint64(cols), what)
		m := &tensor.Matrix{Rows: rows, Cols: cols, Data: make([]float32, len(raw)/4)}
		for j := range m.Data {
			m.Data[j] = math.Float32frombits(le.Uint32(raw[4*j:]))
		}
		out = append(out, m)
	}
	return out
}

// DecodeCheckpoint is the one reader of the container layout: trainer resume,
// model hydration and elastic recovery all start from its result.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	kind, body, err := checkFrame(b)
	if err != nil {
		return nil, err
	}
	if kind != kindModel && kind != kindTrainer {
		return nil, fmt.Errorf("core: checkpoint kind %d", kind)
	}
	c := &cursor{b: body}
	ck := &Checkpoint{Arch: Arch(c.str("arch"))}
	ck.Layers = c.count("layers", maxCkptLayers)
	ck.Hidden = c.count("hidden", maxCkptDim)
	ck.InDim = c.count("input dim", maxCkptDim)
	ck.OutDim = c.count("output dim", maxCkptDim)
	// Whatever the architecture, layer l projects in_l × out_l, so the header
	// implies at least this many parameter floats; a header whose model cannot
	// fit in the file is forged, and building it would allocate on its word.
	var implied uint64
	for l := 0; l < ck.Layers; l++ {
		in, out := layerDims(l, ck.Layers, ck.Hidden, ck.InDim, ck.OutDim)
		implied += uint64(in) * uint64(out)
	}
	if 4*implied > uint64(len(c.b)) {
		c.fail("header implies at least %d parameter bytes, %d remain", 4*implied, len(c.b))
	}
	ck.Params = c.mats(c.count("parameter count", uint64(len(c.b))/16), "param")
	if kind == kindTrainer {
		rs := &ResumeState{}
		rs.Epoch = c.count("epoch", math.MaxInt32)
		rs.Strategy = c.str("strategy name")
		rs.StrategyState = c.u64("strategy state")
		rs.Dropouts = make([]uint64, c.count("dropout stream count", uint64(len(c.b))/8))
		for i := range rs.Dropouts {
			rs.Dropouts[i] = c.u64("dropout stream")
		}
		rs.AdamStep = c.count("adam step", math.MaxInt32)
		rs.AdamM = c.mats(len(ck.Params), "adam.m")
		rs.AdamV = c.mats(len(ck.Params), "adam.v")
		ck.Resume = rs
	}
	if c.err == nil && len(c.b) != 0 {
		c.fail("has %d bytes after its last section", len(c.b))
	}
	if c.err != nil {
		return nil, c.err
	}
	return ck, nil
}

// sameShapes checks a checkpoint's matrices against the live ones they are
// about to be copied into.
func sameShapes(got, want []*tensor.Matrix, what string) error {
	if len(got) != len(want) {
		return fmt.Errorf("core: checkpoint has %d %s matrices, model has %d", len(got), what, len(want))
	}
	for i, w := range want {
		if got[i].Rows != w.Rows || got[i].Cols != w.Cols {
			return fmt.Errorf("core: checkpoint %s %d is %dx%d, model expects %dx%d", what, i, got[i].Rows, got[i].Cols, w.Rows, w.Cols)
		}
	}
	return nil
}

func copyMats(dst, src []*tensor.Matrix) {
	for i := range dst {
		dst[i].CopyFrom(src[i])
	}
}

// matches checks the checkpoint's header and every parameter shape against
// m, so a mismatched load fails loudly instead of misassigning state.
func (c *Checkpoint) matches(m *Model) error {
	if c.Arch != m.Config.Arch || c.Layers != m.Config.Layers ||
		c.Hidden != m.Config.Hidden || c.InDim != m.InDim || c.OutDim != m.OutDim {
		return fmt.Errorf("core: checkpoint is %s/%d layers/%d hidden/%d->%d, model is %s/%d/%d/%d->%d",
			c.Arch, c.Layers, c.Hidden, c.InDim, c.OutDim,
			m.Config.Arch, m.Config.Layers, m.Config.Hidden, m.InDim, m.OutDim)
	}
	return sameShapes(c.Params, m.Params(), "param")
}

// LoadWeights copies the checkpoint's parameters into m, which must have the
// same architecture and dimensions.
func (c *Checkpoint) LoadWeights(m *Model) error {
	if err := c.matches(m); err != nil {
		return err
	}
	copyMats(m.Params(), c.Params)
	return nil
}

// Model builds the model the header describes and adopts the checkpoint's
// weights — how an inference server hydrates without a dataset, optimizer or
// transport. Dropout is zero and the learning rate a placeholder.
func (c *Checkpoint) Model() (*Model, error) {
	m, err := NewModel(ModelConfig{Arch: c.Arch, Layers: c.Layers, Hidden: c.Hidden, LR: 0.01}, c.InDim, c.OutDim)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint header describes an unbuildable model: %w", err)
	}
	if err := c.LoadWeights(m); err != nil {
		return nil, err
	}
	return m, nil
}

// Restore puts rt exactly where the trainer that wrote the checkpoint
// stopped, whichever rank of that run it was: the weights, Adam state and
// epoch are the file's, and each dropout stream is set where rt's own stands
// at that epoch (dropoutState). Everything is validated against rt before
// anything is written, so a rejected checkpoint leaves the trainer untouched.
func (c *Checkpoint) Restore(rt *RankTrainer) error {
	rs := c.Resume
	if rs == nil {
		return fmt.Errorf("core: this is a weights-only checkpoint; it cannot resume training (no optimizer or RNG state)")
	}
	if err := c.matches(rt.Model); err != nil {
		return err
	}
	if name := rt.Cfg.Strategy.String(); rs.Strategy != name {
		return fmt.Errorf("core: trainer checkpoint was written by sampling strategy %q, this trainer runs %q — resuming would silently switch estimators; restart with the original strategy (or train fresh)", rs.Strategy, name)
	}
	drops := rt.Model.Dropouts
	if len(rs.Dropouts) != len(drops) {
		return fmt.Errorf("core: trainer checkpoint has %d dropout streams, model has %d", len(rs.Dropouts), len(drops))
	}
	params := rt.Model.Params()
	m, v := rt.opt.Moments(params)
	if err := sameShapes(rs.AdamM, m, "adam.m"); err != nil {
		return err
	}
	if err := sameShapes(rs.AdamV, v, "adam.v"); err != nil {
		return err
	}

	copyMats(params, c.Params)
	copyMats(m, rs.AdamM)
	copyMats(v, rs.AdamV)
	rt.epoch = rs.Epoch
	for l, d := range drops {
		d.SetRNGState(rt.dropoutState(l, rs.Epoch))
	}
	rt.opt.SetStepCount(rs.AdamStep)
	return nil
}

// ReadCheckpointFile decodes the checkpoint at path, reading the file once.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c, err := DecodeCheckpoint(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// LoadModelFile hydrates a model from a checkpoint file of either kind (see
// Checkpoint.Model). The CRC covers a trainer checkpoint's resume section
// too, so a server never trusts weights out of a file damaged anywhere.
func LoadModelFile(path string) (*Model, error) {
	c, err := ReadCheckpointFile(path)
	if err != nil {
		return nil, err
	}
	return c.Model()
}

// VerifyTrainerCheckpointFile checks that path holds a complete, intact
// trainer checkpoint — the frame check alone, no parse. The elastic recovery
// scan uses it to find the newest generation worth loading.
func VerifyTrainerCheckpointFile(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	kind, _, err := checkFrame(b)
	if err == nil && kind != kindTrainer {
		err = fmt.Errorf("core: checkpoint kind %d is not a trainer checkpoint", kind)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// SaveTrainerCheckpointFile writes a trainer checkpoint to path atomically
// and durably (see atomicWriteFile), which is what lets elastic recovery and
// the server trust the newest generation on disk even across a crash.
func SaveTrainerCheckpointFile(path string, rt *RankTrainer) error {
	return atomicWriteFile(path, snapshotTrainer(rt).Encode())
}

// SaveCheckpointFile writes a weights-only checkpoint to path, as durably as
// SaveTrainerCheckpointFile.
func SaveCheckpointFile(path string, m *Model) error {
	return atomicWriteFile(path, snapshotModel(m).Encode())
}
