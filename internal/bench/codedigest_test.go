package bench

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

// codeDigests pins the machine code every emitting mode produces for the six
// Sec. VI kernels, each prepared in a fresh workload. The digest covers every
// code region the preparation placed (DBrew output and JIT functions): its
// name, its address and its bytes, so a change to instruction selection,
// encoding, layout or placement shows up here even when the cycle-model
// figures do not move.
var codeDigests = map[string]string{
	"DBrew/element/Direct":            "e9ee0e5c086f6bb3abf0fd69d02a4efd4313bcd76f4ce817918f50a57e350892",
	"DBrew/element/Struct":            "bba16d19d1dbab2e82e6bb5d8bbfaf5119be497c6373a5e5d7f2a719daf22ed1",
	"DBrew/element/SortedStruct":      "875db4893ee92e35a9cc7c6195058a1050fd577d437c390932546bf283d5220f",
	"DBrew/line/Direct":               "db0ed9e0d9d87a98983409e9fe01e90eb05d70944bdf9ddd2a60ef205fb48f3e",
	"DBrew/line/Struct":               "ecc273ebfdf013c2064e8297a6a265817051526864c7b402ae0c1e5812c4d8c2",
	"DBrew/line/SortedStruct":         "4a3ce9df768e86c6b7b64983b16ca367fa2098e621695b6930c02fcdee240aa0",
	"LLVM/element/Direct":             "6c83e13fab261e3080a0c86b60e22f8f0dd05a37b7e1c1b4a7da7bb751dcf4bf",
	"LLVM/element/Struct":             "8722081c8ae298d96cf56afd0a1d9def0c77695bda152049b268c3ac49ba7766",
	"LLVM/element/SortedStruct":       "0a3b778bb42a52f635355126a2e9c1d09b1b5327c0e9f33ad6888f887f668255",
	"LLVM/line/Direct":                "0017d7d00bd8364427db77b884dfba66b72295c05102b3483923742bec07fe1b",
	"LLVM/line/Struct":                "bdb61eae9164836fac3e34822b8e7b863da5257a366360837f62a7c0c3e450bd",
	"LLVM/line/SortedStruct":          "a4893cb989af4d36d8c51586aa910a705f6cc785c01fb071ffde9eb16d90d8ed",
	"LLVM-fix/element/Direct":         "3dac5ac7e1ab3e9d8cb3d04b07fd481998d12440c05f587bc82a507ed8cf6371",
	"LLVM-fix/element/Struct":         "9271d1b62668fe287353d48091135eb1e608759d2e78d0bd3b3c6003c75ce3fa",
	"LLVM-fix/element/SortedStruct":   "b6ab6979fbeb0103efd2cb6342659b170b1a1ff22a9c7ad1fdf7105302424b70",
	"LLVM-fix/line/Direct":            "a5c32dd64133971b5216118f5208ca136e1c1acd9666c3909984f7bdcca582e0",
	"LLVM-fix/line/Struct":            "f4216404c57d7ab3033c4222f1143bfbfe76e50ad2ff39b26e31a2553ab7d859",
	"LLVM-fix/line/SortedStruct":      "79ead96931fc06029dec5c60ec10993ada21db4d5420411a04cb6eda93d562c1",
	"DBrew+LLVM/element/Direct":       "734ff6da0ffeab9004ba07728bc44d5e06a5de1408feed5de578f48253baeb1f",
	"DBrew+LLVM/element/Struct":       "a9c6f2f507451d3f0d5fef5fe47dffb193252885f43786c0cfe9bde835c49842",
	"DBrew+LLVM/element/SortedStruct": "5755fced9e17a782600c5cd8ed3fcaea5b1aa5f4ca6542f530e6aede4f94befb",
	"DBrew+LLVM/line/Direct":          "187f295d22e2721d8e80691055a9a975741a4e41d95bb93d9e29e0d9bd2294ab",
	"DBrew+LLVM/line/Struct":          "beb9eb34e5d5ec0a76dc7183f999108b169b77ac75017d9deed60d4f619d3f09",
	"DBrew+LLVM/line/SortedStruct":    "46f062a112cfe2325891b6e3ae562b0470cad00fe462c6b60ccfc544604c876c",
}

// codeDigest hashes, in address order, the code regions of w.Mem that are
// not in before.
func codeDigest(w *Workload, before map[uint64]bool) string {
	h := sha256.New()
	var hdr [16]byte
	for _, r := range w.Mem.Regions() {
		if before[r.Start] {
			continue
		}
		if !strings.HasPrefix(r.Name, "jitcode.") && r.Name != "dbrew.code" {
			continue
		}
		h.Write([]byte(r.Name))
		binary.LittleEndian.PutUint64(hdr[:8], r.Start)
		binary.LittleEndian.PutUint64(hdr[8:], uint64(len(r.Data)))
		h.Write(hdr[:])
		h.Write(r.Data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestMachineCodeDigests(t *testing.T) {
	got := map[string]string{}
	for _, mode := range []Mode{DBrew, LLVM, LLVMFix, DBrewLLVM} {
		for _, kind := range []Kind{Element, Line} {
			for _, s := range AllStructures {
				w, err := NewWorkload(33)
				if err != nil {
					t.Fatal(err)
				}
				before := map[uint64]bool{}
				for _, r := range w.Mem.Regions() {
					before[r.Start] = true
				}
				key := fmt.Sprintf("%v/%v/%v", mode, kind, s)
				if _, err := w.Prepare(kind, s, mode, Options{}); err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				got[key] = codeDigest(w, before)
			}
		}
	}
	for key, d := range got {
		if want := codeDigests[key]; d != want {
			t.Errorf("%s: code digest %s, want %s", key, d, want)
		}
	}
	if t.Failed() {
		var sb strings.Builder
		for _, mode := range []Mode{DBrew, LLVM, LLVMFix, DBrewLLVM} {
			for _, kind := range []Kind{Element, Line} {
				for _, s := range AllStructures {
					key := fmt.Sprintf("%v/%v/%v", mode, kind, s)
					fmt.Fprintf(&sb, "\t%q: %q,\n", key, got[key])
				}
			}
		}
		t.Log("current digests:\n" + sb.String())
	}
}
