package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0..100) of xs by the nearest-rank
// rule; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(float64(len(s))*p/100+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// tailBeyond is how many samples must lie beyond a reported tail.
const tailBeyond = 10

// tail returns the highest percentile that has at least tailBeyond samples
// beyond it: the value at rank n-tailBeyond, and that rank as a percentile.
// A sample of tailBeyond or fewer values has no such percentile; the median
// stands in for it.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n <= tailBeyond {
		return percentile(xs, 50), 50
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[n-tailBeyond-1], 100 * float64(n-tailBeyond) / float64(n)
}

// viewWriter is the caller's writer of one view: it hashes what it
// receives, counts it and stamps the arrival of the first byte.
type viewWriter struct {
	h     hash.Hash
	n     int64
	first time.Time
}

func newViewWriter() *viewWriter { return &viewWriter{h: sha256.New()} }

func (w *viewWriter) Write(p []byte) (int, error) {
	if w.n == 0 && len(p) > 0 {
		w.first = time.Now()
	}
	w.n += int64(len(p))
	return w.h.Write(p)
}

func (w *viewWriter) digest() string { return hex.EncodeToString(w.h.Sum(nil)) }

// ttfb is the delay from start to the first byte; an empty view's first
// byte is its end, latency after start.
func (w *viewWriter) ttfb(start time.Time, latency time.Duration) time.Duration {
	if w.n == 0 {
		return latency
	}
	return w.first.Sub(start)
}

// digestString is the digest a viewWriter computes for s.
func digestString(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// runtimeSample is a snapshot of the process-wide allocation, GC and CPU
// counters.
type runtimeSample struct {
	totalAlloc uint64
	numGC      uint32
	gcCPU      float64
	totalCPU   float64
	// processCPU is the user and system CPU time the kernel charged to the
	// process. Unlike wall time it excludes the time a virtual CPU was
	// stolen by the host.
	processCPU time.Duration
}

func sampleRuntime() runtimeSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	out := runtimeSample{totalAlloc: ms.TotalAlloc, numGC: ms.NumGC,
		processCPU: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.totalCPU = s[1].Value.Float64()
	}
	return out
}

// runtimeDelta fills the allocation, CPU and GC metrics for ops operations
// completed between two samples.
func runtimeDelta(res *result, before, after runtimeSample, ops int64) {
	if ops <= 0 {
		return
	}
	res.e2e["alloc_mb_per_op"] = float64(after.totalAlloc-before.totalAlloc) / 1e6 / float64(ops)
	res.e2e["cpu_ms_per_op"] = ms(after.processCPU-before.processCPU) / float64(ops)
	res.layer["runtime.gc_cycles_per_op"] = float64(after.numGC-before.numGC) / float64(ops)
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		res.layer["runtime.gc_cpu_frac"] = (after.gcCPU - before.gcCPU) / cpu
	}
}

// fingerprint identifies the machine and the code a result was measured on.
// The checkout the benchmark runs in need not be a git repository, so the
// code is identified by the VCS revision when the build recorded one and
// always by a digest of the module's Go sources.
func fingerprint() map[string]string {
	fp := map[string]string{
		"cpu":        cpuModel(),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     "unknown",
		"source":     sourceDigest(),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				fp["commit"] = s.Value
			}
		}
	}
	return fp
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes go.mod and every .go file of the module rooted at the
// current directory (the checkout root), skipping the benchmark's own
// directory and hidden directories; "unknown" when the tree cannot be read.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || path == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if path != "go.mod" && !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
