package obs

import (
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	rtpprof "runtime/pprof"
)

// Mount registers the observability handlers on an existing mux:
//
//	/metrics       Prometheus text exposition (version 0.0.4)
//	/debug/pprof/  the standard pprof handlers
//
// The p4wnd daemon mounts these next to its job API on one listener.
func Mount(mux *http.ServeMux, reg *Registry) {
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", PrometheusContentType)
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// StartProfiles starts a CPU profile and/or arranges a heap profile, per
// the -cpuprofile/-memprofile flags. The returned stop function flushes
// both; it is safe to call when both paths are empty.
func StartProfiles(cpuPath, memPath string) (func() error, error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := rtpprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	stop := func() error {
		if cpuFile != nil {
			rtpprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date allocation stats
			if err := rtpprof.WriteHeapProfile(f); err != nil {
				return err
			}
		}
		return nil
	}
	return stop, nil
}
