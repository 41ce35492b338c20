package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// hostMeta describes the machine and build a result was measured on.
func hostMeta() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  procField("/proc/cpuinfo", "model name"),
		"go_version": runtime.Version(),
		"commit":     commit,
	}
}

// peakRSSMB is the process's resident high-water mark (VmHWM) in MiB, or
// 0 where /proc is unavailable.
func peakRSSMB() float64 {
	f := strings.Fields(procField("/proc/self/status", "VmHWM"))
	if len(f) == 0 {
		return 0
	}
	kb, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}

// procField returns the value of the first "key: value" line of a /proc
// file, or "" when it is absent.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, val, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(val)
		}
	}
	return ""
}
