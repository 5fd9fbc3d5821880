package dbrewllvm

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchmarkModuleVets compiles the nested benchmark module — its main
// package and its smoke test — against this checkout, and unless -short runs
// that smoke test, which checks every workload's oracle. benchmark/ has a
// go.mod of its own (replace repro => ../), so `go build ./...` and
// `go test ./...` at the root never reach it; without this test an internal
// API change, or a change that breaks a workload's oracle, shows only at
// `bash benchmark/run.sh`. The proxy is switched off as in
// benchmark/run.sh: the replace needs no download, and nothing else may be
// fetched.
func TestBenchmarkModuleVets(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH")
	}
	inBenchmark := func(args ...string) ([]byte, error) {
		cmd := exec.Command(goBin, args...)
		cmd.Dir = "benchmark"
		cmd.Env = append(os.Environ(), "GOPROXY=off", "GOTOOLCHAIN=local", "GOWORK=off")
		return cmd.CombinedOutput()
	}
	out, err := inBenchmark("vet", "./...")
	if err != nil || len(out) != 0 {
		t.Fatalf("go vet ./... in benchmark/: %v\n%s", err, out)
	}
	if testing.Short() {
		return
	}
	if out, err := inBenchmark("test", "-run", "TestSmoke", "./..."); err != nil {
		t.Fatalf("go test -run TestSmoke ./... in benchmark/: %v\n%s", err, out)
	}
}
