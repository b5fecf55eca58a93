//go:build ignore

// gen_rowacc writes rowacc_amd64.s, the register-resident row-accumulate
// kernels: one body per accumulator count (1–8 YMM registers, an output strip
// of 8–64 floats), which the kernel's entry selects from its lanes argument.
// Every body compares each row id with the source's row count as it loads it
// and reports a bad one instead of storing. Run it with
// `go generate ./internal/tensor/`.
package main

import (
	"bytes"
	"fmt"
	"os"
)

func main() {
	var b bytes.Buffer
	p := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }
	p("// Code generated by gen_rowacc.go; DO NOT EDIT.")
	p("")
	p("//go:build amd64")
	p("")
	p("#include \"textflag.h\"")
	for _, k := range []kernel{sumKernel, axpyKernel, scaledKernel} {
		k.emit(p)
	}
	if err := os.WriteFile("rowacc_amd64.s", b.Bytes(), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// coefMode is where a kernel's term coefficients come from.
type coefMode int

const (
	unit    coefMode = iota // every coefficient is 1: a single is an add
	list                    // coef[t·cstride], with an optional all-±0 skip
	indexed                 // scale[idx[t]], no skip
)

type kernel struct {
	name string // Go name and label prefix
	doc  []string
	args string // the frame's argument size
	coef coefMode
	ok   int // the result's frame offset
}

var sumKernel = kernel{
	name: "sumRowsAVX2",
	doc: []string{
		"// func sumRowsAVX2(dst *float32, lanes int, idx *int32, terms int, x *float32, ldx, xrows int) (ok bool)",
		"//",
		"// dst[j] += x[idx[t]·ldx + j] for t in [0,terms), j in [0, 8·lanes), with the",
		"// row held in lanes YMM registers across the whole sum. Four terms at a",
		"// time chain fma(1, x, acc) — axpy4AVX2 with unit coefficients, which is",
		"// acc+x exactly — and the last terms%4 are single adds, as addAVX2.",
		"// A row id outside [0,xrows) returns false before anything is stored.",
	},
	args: "$0-57",
	coef: unit,
	ok:   56,
}

var axpyKernel = kernel{
	name: "axpyRowsAVX2",
	doc: []string{
		"// func axpyRowsAVX2(dst *float32, lanes int, idx *int32, terms int, x *float32, ldx, xrows int, coef *float32, cstride, skip int) (ok bool)",
		"//",
		"// dst[j] += coef[t·cstride]·x[idx[t]·ldx + j] for t in [0,terms), j in [0, 8·lanes),",
		"// with the row held in lanes YMM registers across the whole sum. Four terms",
		"// at a time chain their FMAs in term order, as axpy4AVX2 does; the last",
		"// terms%4 are single FMAs, as axpyAVX2. skip != 0 passes over a panel whose",
		"// four coefficients are all ±0, and a single whose coefficient is, without",
		"// reading their rows. A row id it reads outside [0,xrows) returns false",
		"// before anything is stored.",
	},
	args: "$0-81",
	coef: list,
	ok:   80,
}

var scaledKernel = kernel{
	name: "scaledRowsAVX2",
	doc: []string{
		"// func scaledRowsAVX2(dst *float32, lanes int, idx *int32, terms int, x *float32, ldx, xrows int, scale *float32) (ok bool)",
		"//",
		"// dst[j] += scale[idx[t]]·x[idx[t]·ldx + j] for t in [0,terms), j in [0, 8·lanes):",
		"// axpyRowsAVX2 without skip, each term's coefficient broadcast from the",
		"// scale entry of the row it reads (SpMMTrans's per-source scale). A row id",
		"// outside [0,xrows) returns false before its scale entry is read or",
		"// anything is stored.",
	},
	args: "$0-65",
	coef: indexed,
	ok:   64,
}

// Registers: DI dst, SI idx, DX x, R8 ldx in bytes, R12 xrows, R9 coef or
// scale, R13 cstride in bytes, CX the panel and single counters, AX BX R10
// R11 the four terms' rows, Y0–Y7 the accumulators, Y12–Y15 the
// coefficients.
var rows = []string{"AX", "BX", "R10", "R11"}

func (k kernel) emit(p func(string, ...any)) {
	p("")
	for _, l := range k.doc {
		p("%s", l)
	}
	p("TEXT ·%s(SB), NOSPLIT, %s", k.name, k.args)
	p("\tMOVQ dst+0(FP), DI")
	p("\tMOVQ lanes+8(FP), CX")
	p("\tMOVQ idx+16(FP), SI")
	p("\tMOVQ x+32(FP), DX")
	p("\tMOVQ ldx+40(FP), R8")
	p("\tSHLQ $2, R8")
	p("\tMOVQ xrows+48(FP), R12")
	switch k.coef {
	case unit:
		p("\tMOVL $0x3f800000, AX // 1.0")
		p("\tVMOVD AX, X12")
		p("\tVBROADCASTSS X12, Y12")
	case list:
		p("\tMOVQ coef+56(FP), R9")
		p("\tMOVQ cstride+64(FP), R13")
		p("\tSHLQ $2, R13")
	case indexed:
		p("\tMOVQ scale+56(FP), R9")
	}
	for l := 8; l > 1; l-- {
		p("\tCMPQ CX, $%d", l)
		p("\tJEQ  %s%d", k.name, l)
	}
	p("\tJMP  %s1", k.name)
	for l := 8; l >= 1; l-- {
		k.body(p, l)
	}
	p("%sbad:", k.name)
	p("\tVZEROUPPER")
	p("\tMOVB $0, ok+%d(FP)", k.ok)
	p("\tRET")
}

// loadRow loads term t's row id from off(SI) into r, leaves for the bad
// label if it is outside [0,xrows) (a negative id is a huge unsigned one),
// and turns it into the row's address. An indexed kernel broadcasts the
// id's scale entry into Y(coef) first.
func (k kernel) loadRow(p func(string, ...any), off int, r string, coef int) {
	p("\tMOVLQSX %d(SI), %s", off, r)
	p("\tCMPQ %s, R12", r)
	p("\tJAE  %sbad", k.name)
	if k.coef == indexed {
		p("\tVBROADCASTSS (R9)(%s*4), Y%d", r, coef)
	}
	p("\tIMULQ R8, %s", r)
	p("\tADDQ DX, %s", r)
}

func (k kernel) body(p func(string, ...any), lanes int) {
	lb := fmt.Sprintf("%s%d", k.name, lanes)
	p("%s:", lb)
	for l := 0; l < lanes; l++ {
		p("\tVMOVUPS %d(DI), Y%d", 32*l, l)
	}
	p("\tMOVQ terms+24(FP), CX")
	p("\tSHRQ $2, CX")
	p("\tJEQ  %ssingles", lb)
	p("%spanel:", lb)
	coef := func(t int) int { return 12 }
	if k.coef == list {
		p("\tCMPQ skip+72(FP), $0")
		p("\tJEQ  %snoskip", lb)
		p("\tLEAQ (R9)(R13*2), BX")
		p("\tMOVL (R9), AX")
		p("\tORL  (R9)(R13*1), AX")
		p("\tORL  (BX), AX")
		p("\tORL  (BX)(R13*1), AX")
		p("\tADDL AX, AX // drops the sign bits: zero iff all four are ±0")
		p("\tJEQ  %snext", lb)
		p("%snoskip:", lb)
		p("\tLEAQ (R9)(R13*2), BX")
		p("\tVBROADCASTSS (R9), Y12")
		p("\tVBROADCASTSS (R9)(R13*1), Y13")
		p("\tVBROADCASTSS (BX), Y14")
		p("\tVBROADCASTSS (BX)(R13*1), Y15")
	}
	if k.coef != unit {
		coef = func(t int) int { return 12 + t }
	}
	for t, r := range rows {
		k.loadRow(p, 4*t, r, coef(t))
	}
	for t, r := range rows {
		for l := 0; l < lanes; l++ {
			p("\tVFMADD231PS %d(%s), Y%d, Y%d", 32*l, r, coef(t), l)
		}
	}
	if k.coef == list {
		p("%snext:", lb)
		p("\tLEAQ (R9)(R13*4), R9")
	}
	p("\tADDQ $16, SI")
	p("\tDECQ CX")
	p("\tJNE  %spanel", lb)
	p("%ssingles:", lb)
	p("\tMOVQ terms+24(FP), CX")
	p("\tANDQ $3, CX")
	p("\tJEQ  %sstore", lb)
	p("%ssingle:", lb)
	if k.coef == list {
		p("\tCMPQ skip+72(FP), $0")
		p("\tJEQ  %ssnoskip", lb)
		p("\tMOVL 0(R9), AX")
		p("\tADDL AX, AX")
		p("\tJEQ  %ssnext", lb)
		p("%ssnoskip:", lb)
		p("\tVBROADCASTSS 0(R9), Y12")
	}
	k.loadRow(p, 0, "AX", 12)
	if k.coef == unit {
		for l := 0; l < lanes; l++ {
			p("\tVADDPS %d(AX), Y%d, Y%d", 32*l, l, l)
		}
	} else {
		for l := 0; l < lanes; l++ {
			p("\tVFMADD231PS %d(AX), Y12, Y%d", 32*l, l)
		}
	}
	if k.coef == list {
		p("%ssnext:", lb)
		p("\tADDQ R13, R9")
	}
	p("\tADDQ $4, SI")
	p("\tDECQ CX")
	p("\tJNE  %ssingle", lb)
	p("%sstore:", lb)
	for l := 0; l < lanes; l++ {
		p("\tVMOVUPS Y%d, %d(DI)", l, 32*l)
	}
	p("\tVZEROUPPER")
	p("\tMOVB $1, ok+%d(FP)", k.ok)
	p("\tRET")
}
