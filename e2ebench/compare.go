package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"seneca/internal/par"
)

// fingerprint identifies the host a result was measured on. Two results
// are comparable only when every field but Commit matches.
type fingerprint struct {
	CPU        string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	ParWorkers int    `json:"par_max_workers"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func (f fingerprint) String() string {
	return fmt.Sprintf("%s, %d CPUs, GOMAXPROCS %d, par workers %d, %s, commit %s",
		f.CPU, f.NumCPU, f.GOMAXPROCS, f.ParWorkers, f.GoVersion, f.Commit)
}

// sameHost reports whether two fingerprints describe the same host setup.
func (f fingerprint) sameHost(g fingerprint) bool {
	f.Commit, g.Commit = "", ""
	return f == g
}

func hostFingerprint() fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		ParWorkers: par.MaxWorkers(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo, falling back to
// the architecture where that file does not exist.
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

// commit is the VCS revision the binary was built from, or, when built
// outside a repository, a digest of the Go sources in the working
// directory ("tree:" prefix).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	h := sha256.New()
	var files []string
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", p, len(b))
		h.Write(b)
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:12]
}

// compareMain diffs two result records metric by metric. It refuses
// records from different hosts, and flags a metric that worsened by more
// than its bound in BENCHMARK.json (when that file is in the working
// directory). Exit status: 0 within bounds, 1 a bound exceeded, 2 the
// records are not comparable.
func compareMain(args []string) int {
	fl := flag.NewFlagSet("compare", flag.ContinueOnError)
	spec := fl.String("benchmark", "BENCHMARK.json", "benchmark definition with the per-metric bounds")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if fl.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: e2ebench compare [-benchmark BENCHMARK.json] base.json new.json")
		return 2
	}
	var base, cand record
	for i, r := range []*record{&base, &cand} {
		b, err := os.ReadFile(fl.Arg(i))
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench compare:", err)
			return 2
		}
		if err := json.Unmarshal(b, r); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench compare: %s: %v\n", fl.Arg(i), err)
			return 2
		}
	}
	if !base.Fingerprint.sameHost(cand.Fingerprint) {
		fmt.Fprintf(os.Stderr, "e2ebench compare: refusing to compare results from different hosts:\n  base: %s\n  new:  %s\n",
			base.Fingerprint, cand.Fingerprint)
		return 2
	}
	if base.Workload != cand.Workload || base.Seconds != cand.Seconds {
		fmt.Fprintf(os.Stderr, "e2ebench compare: workload/seconds differ (%s %gs vs %s %gs)\n",
			base.Workload, base.Seconds, cand.Workload, cand.Seconds)
		return 2
	}
	bounds := readBounds(*spec)
	fmt.Printf("%s: %s -> %s\n", base.Workload, base.Fingerprint.Commit, cand.Fingerprint.Commit)
	fmt.Printf("%-22s %14s %14s %9s %7s\n", "metric", "base", "new", "change", "bound")
	worse := false
	for _, k := range endToEndOrder {
		b, okb := base.EndToEnd[k]
		c, okc := cand.EndToEnd[k]
		if !okb || !okc {
			continue
		}
		change := 0.0
		if b.Value != 0 {
			change = (c.Value - b.Value) / b.Value
		}
		bound, has := bounds[k]
		flag := ""
		if has && regressed(change, bound.lower, bound.bound) {
			flag, worse = "  WORSE", true
		}
		bs := "-"
		if has {
			bs = fmt.Sprintf("%.0f%%", 100*bound.bound)
		}
		fmt.Printf("%-22s %14.4f %14.4f %+8.1f%% %7s%s\n", k, b.Value, c.Value, 100*change, bs, flag)
	}
	if worse {
		return 1
	}
	return 0
}

type bound struct {
	bound float64
	lower bool // lower is better
}

// regressed reports whether a relative change is worse than bound in the
// metric's bad direction.
func regressed(change float64, lower bool, b float64) bool {
	if lower {
		return change > b
	}
	return -change > b
}

func readBounds(path string) map[string]bound {
	out := map[string]bound{}
	b, err := os.ReadFile(path)
	if err != nil {
		return out
	}
	var spec struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(b, &spec) != nil {
		return out
	}
	for _, m := range spec.EndToEnd {
		out[m.Name] = bound{bound: m.Bound, lower: m.Better == "lower"}
	}
	return out
}
