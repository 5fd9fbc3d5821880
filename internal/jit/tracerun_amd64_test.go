//go:build amd64 && linux

package jit

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"
	"unsafe"
)

// mappingPerms returns the permission field of the /proc/self/maps line
// whose range holds addr.
func mappingPerms(t *testing.T, addr uintptr) string {
	t.Helper()
	f, err := os.Open("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var lo, hi uintptr
		var perms string
		if _, err := fmt.Sscanf(sc.Text(), "%x-%x %s", &lo, &hi, &perms); err != nil {
			continue
		}
		if lo <= addr && addr < hi {
			return perms
		}
	}
	t.Fatalf("no mapping holds %#x", addr)
	return ""
}

// TestTraceNativeCodeIsWX pins that native trace code is never writable
// and executable at once: the buffer allocExec returns is mapped r-x, and
// it runs through the trampoline as generated code does.
func TestTraceNativeCodeIsWX(t *testing.T) {
	// mov qword [r15], 42; ret
	buf, err := allocExec([]byte{0x49, 0xC7, 0x07, 0x2A, 0x00, 0x00, 0x00, 0xC3})
	if err != nil {
		t.Fatal(err)
	}
	defer freeExec(buf)
	entry := uintptr(unsafe.Pointer(&buf[0]))
	if perms := mappingPerms(t, entry); !strings.HasPrefix(perms, "r-x") {
		t.Fatalf("allocExec mapping is %s, want r-x", perms)
	}
	var state [1]uint64
	traceEnter(entry, &state[0])
	if state[0] != 42 {
		t.Fatalf("code stored %d, want 42", state[0])
	}
}
