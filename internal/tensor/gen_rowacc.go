//go:build ignore

// gen_rowacc writes rowacc_amd64.s, the register-resident row-accumulate
// kernels: one body per accumulator count (1–8 YMM registers, an output strip
// of 8–64 floats), which the kernel's entry selects from its lanes argument.
// Run it with `go generate ./internal/tensor/`.
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
	for _, k := range []kernel{sumKernel, axpyKernel} {
		k.emit(p)
	}
	if err := os.WriteFile("rowacc_amd64.s", b.Bytes(), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

type kernel struct {
	name string // Go name and label prefix
	doc  []string
	args string // the frame's argument size
	// coef is true for the coefficient kernel: four broadcasts per panel
	// from the coefficient list, an optional all-±0 panel skip, and FMA
	// singles; otherwise every coefficient is 1 and a single is an add.
	coef bool
}

var sumKernel = kernel{
	name: "sumRowsAVX2",
	doc: []string{
		"// func sumRowsAVX2(dst *float32, lanes int, idx *int32, terms int, x *float32, ldx int)",
		"//",
		"// dst[j] += x[idx[t]·ldx + j] for t in [0,terms), j in [0, 8·lanes), with the",
		"// row held in lanes YMM registers across the whole sum. Four terms at a",
		"// time chain fma(1, x, acc) — axpy4AVX2 with unit coefficients, which is",
		"// acc+x exactly — and the last terms%4 are single adds, as addAVX2.",
	},
	args: "$0-48",
}

var axpyKernel = kernel{
	name: "axpyRowsAVX2",
	doc: []string{
		"// func axpyRowsAVX2(dst *float32, lanes int, idx *int32, terms int, x *float32, ldx int, coef *float32, cstride int, skip int)",
		"//",
		"// dst[j] += coef[t·cstride]·x[idx[t]·ldx + j] for t in [0,terms), j in [0, 8·lanes),",
		"// with the row held in lanes YMM registers across the whole sum. Four terms",
		"// at a time chain their FMAs in term order, as axpy4AVX2 does; the last",
		"// terms%4 are single FMAs, as axpyAVX2. skip != 0 passes over a panel whose",
		"// four coefficients are all ±0, and a single whose coefficient is.",
	},
	args: "$0-72",
	coef: true,
}

// Registers: DI dst, SI idx, DX x, R8 ldx in bytes, R9 coef, R13 cstride in
// bytes, R12 skip, CX the panel and single counters, AX BX R10 R11 the four
// terms' rows, Y0–Y7 the accumulators, Y12–Y15 the coefficients.
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
	if k.coef {
		p("\tMOVQ coef+48(FP), R9")
		p("\tMOVQ cstride+56(FP), R13")
		p("\tSHLQ $2, R13")
		p("\tMOVQ skip+64(FP), R12")
	} else {
		p("\tMOVL $0x3f800000, AX // 1.0")
		p("\tVMOVD AX, X12")
		p("\tVBROADCASTSS X12, Y12")
	}
	for l := 8; l > 1; l-- {
		p("\tCMPQ CX, $%d", l)
		p("\tJEQ  %s%d", k.name, l)
	}
	p("\tJMP  %s1", k.name)
	for l := 8; l >= 1; l-- {
		k.body(p, l)
	}
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
	if k.coef {
		p("\tTESTQ R12, R12")
		p("\tJEQ  %snoskip", lb)
		p("\tLEAQ (R9)(R13*2), BX")
		p("\tMOVL (R9), AX")
		p("\tORL  (R9)(R13*1), AX")
		p("\tORL  (BX), AX")
		p("\tORL  (BX)(R13*1), AX")
		p("\tADDL AX, AX // drops the sign bits: zero iff all four are ±0")
		p("\tJEQ  %snext", lb)
		p("%snoskip:", lb)
	}
	coef := func(t int) int { return 12 }
	if k.coef {
		p("\tLEAQ (R9)(R13*2), BX")
		p("\tVBROADCASTSS (R9), Y12")
		p("\tVBROADCASTSS (R9)(R13*1), Y13")
		p("\tVBROADCASTSS (BX), Y14")
		p("\tVBROADCASTSS (BX)(R13*1), Y15")
		coef = func(t int) int { return 12 + t }
	}
	for t, r := range rows {
		p("\tMOVLQSX %d(SI), %s", 4*t, r)
		p("\tIMULQ R8, %s", r)
		p("\tADDQ DX, %s", r)
	}
	for t, r := range rows {
		for l := 0; l < lanes; l++ {
			p("\tVFMADD231PS %d(%s), Y%d, Y%d", 32*l, r, coef(t), l)
		}
	}
	if k.coef {
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
	if k.coef {
		p("\tTESTQ R12, R12")
		p("\tJEQ  %ssnoskip", lb)
		p("\tMOVL 0(R9), AX")
		p("\tADDL AX, AX")
		p("\tJEQ  %ssnext", lb)
		p("%ssnoskip:", lb)
	}
	p("\tMOVLQSX 0(SI), AX")
	p("\tIMULQ R8, AX")
	p("\tADDQ DX, AX")
	if k.coef {
		p("\tVBROADCASTSS 0(R9), Y12")
		for l := 0; l < lanes; l++ {
			p("\tVFMADD231PS %d(AX), Y12, Y%d", 32*l, l)
		}
		p("%ssnext:", lb)
		p("\tADDQ R13, R9")
	} else {
		for l := 0; l < lanes; l++ {
			p("\tVADDPS %d(AX), Y%d, Y%d", 32*l, l, l)
		}
	}
	p("\tADDQ $4, SI")
	p("\tDECQ CX")
	p("\tJNE  %ssingle", lb)
	p("%sstore:", lb)
	for l := 0; l < lanes; l++ {
		p("\tVMOVUPS Y%d, %d(DI)", l, 32*l)
	}
	p("\tVZEROUPPER")
	p("\tRET")
}
