package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// cliRun runs the spotverse-experiments binary and returns its stdout.
func cliRun(cli string, args ...string) ([]byte, error) {
	var out, errb bytes.Buffer
	cmd := exec.Command(cli, args...)
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s %s: %w: %s", filepath.Base(cli), strings.Join(args, " "), err, strings.TrimSpace(errb.String()))
	}
	return out.Bytes(), nil
}

// cliRunAll runs one CLI invocation per argument list, at most procs at
// a time, and returns the outputs and errors in argument order.
func cliRunAll(cli string, argLists [][]string, procs int) ([][]byte, []error) {
	outs := make([][]byte, len(argLists))
	errs := make([]error, len(argLists))
	next := make(chan int, len(argLists)) // holds every index up front
	for i := range argLists {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < max(procs, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				outs[i], errs[i] = cliRun(cli, argLists[i]...)
			}
		}()
	}
	wg.Wait()
	return outs, errs
}

// sameBytes reports whether got equals want and, if not, describes the
// first differing line.
func sameBytes(want, got []byte) (bool, string) {
	if bytes.Equal(want, got) {
		return true, ""
	}
	wl := strings.Split(string(want), "\n")
	gl := strings.Split(string(got), "\n")
	for i := 0; i < max(len(wl), len(gl)); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return false, fmt.Sprintf("line %d: want %q, got %q", i+1, w, g)
		}
	}
	return false, fmt.Sprintf("lengths differ: want %d bytes, got %d", len(want), len(got))
}

// sourceDigest hashes go.mod and every .go file under root (skipping
// hidden directories such as .git and .bench_build), so a result names
// the exact code it measured even in a checkout without git metadata.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if len(files) == 0 {
		return "none"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00", rel)
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
