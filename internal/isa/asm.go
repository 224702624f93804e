package isa

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/arch"
)

// Assemble parses a small assembly dialect into a Program, so attack
// gadgets and micro-kernels can be written as text instead of builder
// calls. The dialect, one statement per line:
//
//	; comment (also #)
//	label:
//	.data ADDR VALUE        ; initialize an 8-byte word
//	li   rD, IMM
//	add  rD, rS1, rS2       ; also sub/and/or/xor/shl/shr/mul/mix
//	addi rD, rS1, IMM       ; immediate forms: subi/andi/ori/xori/shli/shri/muli/mixi
//	ld   rD, [rS1+IMM]      ; the +IMM part is optional
//	st   [rS1+IMM], rS2
//	beq  rS1, rS2, label    ; also bne/bltu/bgeu/blt/bge
//	jmp  label
//	call label
//	ret
//	clflush [rS1+IMM]
//	fence
//	rdcycle rD
//	nop
//	halt
//
// Registers are written r0..r31. Immediates accept decimal and 0x hex.
func Assemble(name, src string) (prog *Program, err error) {
	// The builder reports structural mistakes (duplicate or undefined
	// labels) by panicking; surface them as errors here.
	defer func() {
		if r := recover(); r != nil {
			prog = nil
			err = fmt.Errorf("%s: %v", name, r)
		}
	}()
	b := NewBuilder(name)
	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexAny(line, ";#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if err := asmLine(b, line); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", name, lineNo+1, err)
		}
	}
	return b.Build(), nil
}

// MustAssemble is Assemble that panics on error (tests, fixed gadgets).
func MustAssemble(name, src string) *Program {
	p, err := Assemble(name, src)
	if err != nil {
		panic(err)
	}
	return p
}

var asmALU = map[string]ALUKind{
	"add": AluAdd, "sub": AluSub, "and": AluAnd, "or": AluOr,
	"xor": AluXor, "shl": AluShl, "shr": AluShr, "mul": AluMul, "mix": AluMix,
}

var asmCond = map[string]Cond{
	"beq": CondEQ, "bne": CondNE, "bltu": CondLTU,
	"bgeu": CondGEU, "blt": CondLT, "bge": CondGE,
}

func asmLine(b *Builder, line string) error {
	if strings.HasSuffix(line, ":") {
		label := strings.TrimSuffix(line, ":")
		if label == "" || strings.ContainsAny(label, " \t") {
			return fmt.Errorf("bad label %q", line)
		}
		b.Label(label)
		return nil
	}
	op, rest, _ := strings.Cut(line, " ")
	op = strings.ToLower(op)
	args := splitArgs(rest)

	switch {
	case op == ".data":
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			return fmt.Errorf(".data wants ADDR VALUE")
		}
		addr, err1 := parseImm(fields[0])
		val, err2 := parseImm(fields[1])
		if err1 != nil || err2 != nil {
			return fmt.Errorf("bad .data operands %v", args)
		}
		b.InitData(arch.Addr(addr), uint64(val))
	case op == "li":
		rd, err := parseReg(args, 0)
		imm, err2 := parseImmAt(args, 1)
		if err != nil || err2 != nil {
			return firstErr(err, err2)
		}
		b.Li(rd, imm)
	case asmALU[op] != 0 || op == "add": // "add" maps to zero value AluAdd
		kind, ok := asmALU[op]
		if !ok {
			return fmt.Errorf("unknown op %q", op)
		}
		rd, err := parseReg(args, 0)
		rs1, err2 := parseReg(args, 1)
		rs2, err3 := parseReg(args, 2)
		if err != nil || err2 != nil || err3 != nil {
			return firstErr(err, err2, err3)
		}
		b.Alu(kind, rd, rs1, rs2)
	case strings.HasSuffix(op, "i") && asmALUi(op) != nil:
		kind := *asmALUi(op)
		rd, err := parseReg(args, 0)
		rs1, err2 := parseReg(args, 1)
		imm, err3 := parseImmAt(args, 2)
		if err != nil || err2 != nil || err3 != nil {
			return firstErr(err, err2, err3)
		}
		b.AluI(kind, rd, rs1, imm)
	case op == "ld":
		rd, err := parseReg(args, 0)
		rs1, imm, err2 := parseMem(args, 1)
		if err != nil || err2 != nil {
			return firstErr(err, err2)
		}
		b.Load(rd, rs1, imm)
	case op == "st":
		rs1, imm, err := parseMem(args, 0)
		rs2, err2 := parseReg(args, 1)
		if err != nil || err2 != nil {
			return firstErr(err, err2)
		}
		b.Store(rs1, imm, rs2)
	case asmCondOK(op):
		rs1, err := parseReg(args, 0)
		rs2, err2 := parseReg(args, 1)
		if err != nil || err2 != nil {
			return firstErr(err, err2)
		}
		if len(args) < 3 {
			return fmt.Errorf("%s wants a label", op)
		}
		b.Br(asmCond[op], rs1, rs2, args[2])
	case op == "jmp":
		if len(args) != 1 {
			return fmt.Errorf("jmp wants a label")
		}
		b.Jmp(args[0])
	case op == "call":
		if len(args) != 1 {
			return fmt.Errorf("call wants a label")
		}
		b.Call(args[0])
	case op == "ret":
		b.Ret()
	case op == "clflush":
		rs1, imm, err := parseMem(args, 0)
		if err != nil {
			return err
		}
		b.CLFlush(rs1, imm)
	case op == "fence":
		b.Fence()
	case op == "rdcycle":
		rd, err := parseReg(args, 0)
		if err != nil {
			return err
		}
		b.RdCycle(rd)
	case op == "nop":
		b.Nop()
	case op == "halt":
		b.Halt()
	default:
		return fmt.Errorf("unknown op %q", op)
	}
	return nil
}

// asmALUi maps "addi" -> AluAdd etc., nil for non-ALU-immediate ops.
func asmALUi(op string) *ALUKind {
	base := strings.TrimSuffix(op, "i")
	if k, ok := asmALU[base]; ok {
		return &k
	}
	return nil
}

func asmCondOK(op string) bool { _, ok := asmCond[op]; return ok }

func splitArgs(s string) []string {
	parts := strings.Split(s, ",")
	var out []string
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseReg(args []string, i int) (Reg, error) {
	if i >= len(args) {
		return 0, fmt.Errorf("missing register operand %d", i)
	}
	s := strings.ToLower(args[i])
	if !strings.HasPrefix(s, "r") {
		return 0, fmt.Errorf("bad register %q", args[i])
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= NumRegs {
		return 0, fmt.Errorf("bad register %q", args[i])
	}
	return Reg(n), nil
}

func parseImm(s string) (int64, error) {
	return strconv.ParseInt(strings.TrimSpace(s), 0, 64)
}

func parseImmAt(args []string, i int) (int64, error) {
	if i >= len(args) {
		return 0, fmt.Errorf("missing immediate operand %d", i)
	}
	v, err := parseImm(args[i])
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q", args[i])
	}
	return v, nil
}

// parseMem parses "[rN]" or "[rN+IMM]" (also "-IMM").
func parseMem(args []string, i int) (Reg, int64, error) {
	if i >= len(args) {
		return 0, 0, fmt.Errorf("missing memory operand %d", i)
	}
	s := strings.TrimSpace(args[i])
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	inner := s[1 : len(s)-1]
	regPart, immPart := inner, ""
	if p := strings.IndexAny(inner, "+-"); p > 0 {
		regPart, immPart = inner[:p], inner[p:]
	}
	r, err := parseReg([]string{strings.TrimSpace(regPart)}, 0)
	if err != nil {
		return 0, 0, err
	}
	imm := int64(0)
	if immPart != "" {
		imm, err = parseImm(immPart)
		if err != nil {
			return 0, 0, fmt.Errorf("bad offset %q", immPart)
		}
	}
	return r, imm, nil
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
