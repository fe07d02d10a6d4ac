package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo fingerprints the machine a result came from. Timings taken on
// one core cannot show the cluster3 parallel speed-up, so SingleCore flags
// such results.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	StoreFS    string `json:"store_fs"`
	// RefMs is how long a fixed CPU and memory loop (referenceLoop) takes
	// when the run starts: host speed drifts on shared machines, and this
	// lets runs taken at different times be compared.
	RefMs      float64 `json:"ref_loop_ms"`
	SingleCore bool    `json:"single_core"`
	// SingleCoreNote explains the flag when it is set.
	SingleCoreNote string `json:"single_core_note,omitempty"`
}

func fingerprint(storeDir string, refMs float64) hostInfo {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		StoreFS:    fsType(storeDir),
		RefMs:      refMs,
	}
	if h.NumCPU < 2 || h.GOMAXPROCS < 2 {
		h.SingleCore = true
		h.SingleCoreNote = "one core: cluster3 cannot show its parallel speed-up, so runner.speedup_x is not evidence for or against sharding"
	}
	return h
}

// fsMagic names the statfs(2) magic numbers of common Linux filesystems.
var fsMagic = map[int64]string{
	0xEF53:     "ext2/3/4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0x2FC12FC1: "zfs",
	0xF2F52010: "f2fs",
	0x858458F6: "ramfs",
}

// fsType reports the filesystem type holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown (" + err.Error() + ")"
	}
	magic := int64(st.Type)
	if name, ok := fsMagic[magic]; ok {
		return name
	}
	return fmt.Sprintf("0x%X", magic)
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak resident-set counter (VmHWM) at
// the current resident size, so a later peakRSS covers only what follows.
// It reports whether the reset took effect.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSS returns the process's peak resident set size in bytes.
func peakRSS() (int64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("unexpected VmHWM line %q", line)
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		return kb << 10, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// referenceLoop returns the median of five timings, in ms, of a fixed
// loop of allocation, map updates and sorting that shares no code with
// the repository.
func referenceLoop() float64 {
	var ms []float64
	for i := 0; i < 5; i++ {
		s := time.Now()
		r := rand.New(rand.NewSource(1))
		m := make(map[int]int)
		xs := make([]int, 0, 200000)
		for j := 0; j < cap(xs); j++ {
			v := r.Intn(1 << 20)
			xs = append(xs, v)
			m[v&0xffff] += v
		}
		sort.Ints(xs)
		ms = append(ms, float64(time.Since(s))/1e6)
	}
	return median(ms)
}
