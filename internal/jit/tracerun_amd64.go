//go:build amd64 && linux

package jit

import "syscall"

// nativeTraceOK gates the native trace backend: the generated code is
// x86-64 and the allocator uses mmap, so traces fall back to the bytecode
// VM everywhere else.
const nativeTraceOK = true

// traceEnter calls generated trace code with R15 = state. Implemented in
// tracerun_amd64.s; the generated code clobbers every GP register (the
// trampoline saves the callee-saved set) and X0/X1, uses no stack beyond the
// return address, and returns via RET after storing an exit token into the state
// buffer.
//
//go:noescape
func traceEnter(code uintptr, state *uint64)

// allocExec maps an RWX buffer holding the generated code. W^X is not a
// concern here: the emulated program never sees this mapping (it lives in
// host memory, outside the emulated address space), and the process is a
// JIT by design.
func allocExec(code []byte) ([]byte, error) {
	buf, err := syscall.Mmap(-1, 0, len(code),
		syscall.PROT_READ|syscall.PROT_WRITE|syscall.PROT_EXEC,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	copy(buf, code)
	return buf, nil
}

// freeExec releases a buffer from allocExec. Called from the nativeProg
// finalizer, so the code is guaranteed unreachable (no frame can be
// executing it).
func freeExec(buf []byte) {
	if buf != nil {
		_ = syscall.Munmap(buf)
	}
}
