//go:build amd64 && linux

#include "textflag.h"

// func traceEnter(code uintptr, state *uint64)
//
// Bridges Go into generated trace code. The generated code's ABI: R15 holds
// the state-buffer base for its whole run, RAX/RCX/RDX and X0/X1 are scratch
// (the XMM registers are all caller-saved under ABI0), O3 compiles
// additionally use RBX/RBP/RSI/RDI/R8-R14 for pinned slots, and it returns
// with RET after storing an exit token into the buffer. Everything
// the Go ABI requires preserved is saved here; the generated code itself
// touches no stack beyond the CALL's return address, so NOSPLIT headroom is
// ample.
TEXT ·traceEnter(SB), NOSPLIT, $0-16
	PUSHQ BX
	PUSHQ BP
	PUSHQ R12
	PUSHQ R13
	PUSHQ R14
	PUSHQ R15
	MOVQ  code+0(FP), AX
	MOVQ  state+8(FP), R15
	CALL  AX
	POPQ  R15
	POPQ  R14
	POPQ  R13
	POPQ  R12
	POPQ  BP
	POPQ  BX
	RET
