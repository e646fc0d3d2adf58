package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// procSample is the process's cumulative resource use at one instant.
type procSample struct {
	wall    time.Time
	cpu     time.Duration // user + system CPU (getrusage)
	mallocs uint64
	gcPause time.Duration
	numGC   uint32
}

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func sampleProc() procSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procSample{
		wall:    time.Now(),
		cpu:     processCPU(),
		mallocs: m.Mallocs,
		gcPause: time.Duration(m.PauseTotalNs),
		numGC:   m.NumGC,
	}
}

// procDelta is the resource use between two samples.
type procDelta struct {
	wall, cpu, gcPause time.Duration
	mallocs            uint64
	numGC              uint32
}

func (a procSample) to(b procSample) procDelta {
	return procDelta{
		wall:    b.wall.Sub(a.wall),
		cpu:     b.cpu - a.cpu,
		gcPause: b.gcPause - a.gcPause,
		mallocs: delta(b.mallocs, a.mallocs),
		numGC:   b.numGC - a.numGC,
	}
}

// heapSampler records the peak HeapInuse seen by a background sampler.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

// heapSampleEvery is the sampling period; ReadMemStats stops the world
// briefly, so it stays coarse.
const heapSampleEvery = 20 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.observe()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.observe()
			}
		}
	}()
	return h
}

func (h *heapSampler) observe() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	for {
		old := h.peak.Load()
		if m.HeapInuse <= old || h.peak.CompareAndSwap(old, m.HeapInuse) {
			return
		}
	}
}

// Stop ends sampling and returns the peak in MiB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	h.wg.Wait()
	h.observe()
	return float64(h.peak.Load()) / (1 << 20)
}

// cpuTicks reads the machine-wide busy-or-idle and steal jiffies from
// /proc/stat, or zeros where it cannot.
func cpuTicks() (total, steal uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text()) // cpu user nice system idle iowait irq softirq steal ...
	for i, v := range fields[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}

// Stamp records the machine a result came from.
type Stamp struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	WalFS      string `json:"wal_fs"`
	Transport  string `json:"transport"`
	// StealPct is the share of the machine's CPU time the hypervisor gave
	// to other guests during the run: interference the run cannot control.
	StealPct float64 `json:"steal_pct"`
}

func machineStamp(walDir string) Stamp {
	return Stamp{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		WalFS:      fsType(walDir),
		Transport:  "loopback",
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsMagic names the filesystems a WAL directory is likely to sit on.
var fsMagic = map[int64]string{
	0x01021994: "tmpfs",
	0xef53:     "ext4",
	0x58465342: "xfs",
	0x9123683e: "btrfs",
	0x794c7630: "overlayfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0x2fc12fc1: "zfs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return "0x" + strconv.FormatUint(uint64(st.Type), 16)
}
