package benchfmt

import (
	"runtime"
	"testing"
)

func TestHostCapturesRuntime(t *testing.T) {
	h := Host()
	if h.OS != runtime.GOOS || h.Arch != runtime.GOARCH {
		t.Fatalf("host = %+v, want GOOS/GOARCH %s/%s", h, runtime.GOOS, runtime.GOARCH)
	}
	if h.NumCPU < 1 || h.GOMAXPROCS < 1 {
		t.Fatalf("host cpu counts must be >= 1: %+v", h)
	}
	if h.GoVersion == "" {
		t.Fatalf("host go version empty")
	}
}
