package benchfmt

import (
	"fmt"
	"runtime"
)

// HostInfo is the machine context a benchmark ran under. hanabench
// prints it above its tables so a number can be judged against its
// hardware: a "regression" measured on a single-core container is a
// different fact than one measured on the 16-core baseline host.
type HostInfo struct {
	OS         string
	Arch       string
	GoVersion  string
	NumCPU     int
	GOMAXPROCS int
}

// Host captures the current process's host context.
func Host() HostInfo {
	return HostInfo{
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// String renders the host line benchmark headers print.
func (h HostInfo) String() string {
	return fmt.Sprintf("%s/%s %s cpus=%d gomaxprocs=%d",
		h.OS, h.Arch, h.GoVersion, h.NumCPU, h.GOMAXPROCS)
}
