// Package cmd_test builds each CLI binary once and exercises it end to
// end on temporary files — the executables' integration tests.
package cmd_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/dataset"
)

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

// binaries builds all commands into a shared temp dir.
func binaries(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "repro-bin")
		if buildErr != nil {
			return
		}
		for _, cmd := range []string{"topkrgs", "rcbt", "rcbtserved", "datagen", "benchrunner"} {
			out, err := exec.Command("go", "build", "-o", filepath.Join(binDir, cmd), "./"+cmd).CombinedOutput()
			if err != nil {
				buildErr = err
				t.Logf("build %s: %s", cmd, out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatalf("building binaries: %v", buildErr)
	}
	return binDir
}

func run(t *testing.T, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(binaries(t), name), args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

func TestDatagenAndTopkrgs(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	dir := t.TempDir()
	out := run(t, "datagen", "-profile", "ALL", "-scale", "60", "-out", dir)
	if !strings.Contains(out, "wrote") {
		t.Fatalf("datagen output: %s", out)
	}
	trainPath := filepath.Join(dir, "allx60_train.txt")
	if _, err := os.Stat(trainPath); err != nil {
		t.Fatalf("train file missing: %v", err)
	}

	out = run(t, "topkrgs", "-in", trainPath, "-matrix", "-class", "0", "-minsup", "0.8", "-k", "3")
	if !strings.Contains(out, "distinct top-3 covering rule groups") {
		t.Fatalf("topkrgs output: %s", out)
	}
	if !strings.Contains(out, "enumeration: nodes=") {
		t.Fatalf("missing stats: %s", out)
	}
}

func TestTopkrgsVerbose(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	dir := t.TempDir()
	run(t, "datagen", "-profile", "LC", "-scale", "100", "-out", dir)
	out := run(t, "topkrgs", "-in", filepath.Join(dir, "lcx100_train.txt"),
		"-matrix", "-class", "1", "-minsup", "0.9", "-k", "2", "-v")
	if !strings.Contains(out, "row ") {
		t.Fatalf("verbose output missing per-row lists: %s", out)
	}
}

func TestRcbtCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	dir := t.TempDir()
	run(t, "datagen", "-profile", "ALL", "-scale", "40", "-out", dir)
	out := run(t, "rcbt",
		"-train", filepath.Join(dir, "allx40_train.txt"),
		"-test", filepath.Join(dir, "allx40_test.txt"),
		"-k", "3", "-nl", "5")
	if !strings.Contains(out, "test accuracy:") {
		t.Fatalf("rcbt output: %s", out)
	}
	if !strings.Contains(out, "classifiers built:") {
		t.Fatalf("rcbt output missing classifier summary: %s", out)
	}
}

func TestBenchrunnerTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	out := run(t, "benchrunner", "-exp", "table1", "-scale", "60")
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "ALL/60") {
		t.Fatalf("benchrunner output: %s", out)
	}
}

func TestBenchrunnerFig6Filtered(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	out := run(t, "benchrunner", "-exp", "fig6", "-scale", "60",
		"-datasets", "ALL", "-minsups", "0.9", "-budget", "100000")
	if !strings.Contains(out, "TopkRGS(k=1)") {
		t.Fatalf("fig6 output: %s", out)
	}
	if strings.Contains(out, "LC/60") {
		t.Fatalf("dataset filter ignored: %s", out)
	}
}

// TestBenchrunnerUsageErrors pins the two usage errors, which exit 2
// before any experiment runs: an unknown -exp (a script still asking
// for a removed experiment must not pass silently), and -json with
// -exp all (every experiment would overwrite the one file). -timeout
// keeps a runner that wrongly starts the experiments short.
func TestBenchrunnerUsageErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	jsonPath := filepath.Join(t.TempDir(), "all.json")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "nosuch"}, "table1, fig6, fig6e"},
		{[]string{"-exp", "all", "-json", jsonPath}, "-json"},
	} {
		args := append(tc.args, "-scale", "60", "-timeout", "1ms")
		out, err := exec.Command(filepath.Join(binaries(t), "benchrunner"), args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("benchrunner %v: %v, want exit status 2\n%s", tc.args, err, out)
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("benchrunner %v: output does not mention %q:\n%s", tc.args, tc.want, out)
		}
	}
	if _, err := os.Stat(jsonPath); !os.IsNotExist(err) {
		t.Errorf("-exp all -json wrote %s (stat: %v)", jsonPath, err)
	}
}

func TestTopkrgsLowerBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	dir := t.TempDir()
	run(t, "datagen", "-profile", "ALL", "-scale", "80", "-out", dir)
	out := run(t, "topkrgs", "-in", filepath.Join(dir, "allx80_train.txt"),
		"-matrix", "-minsup", "0.8", "-k", "2", "-lb", "3")
	if !strings.Contains(out, "lb: ") {
		t.Fatalf("expected lower bound lines: %s", out)
	}
}

func TestRcbtSaveLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	dir := t.TempDir()
	run(t, "datagen", "-profile", "ALL", "-scale", "60", "-out", dir)
	trainF := filepath.Join(dir, "allx60_train.txt")
	testF := filepath.Join(dir, "allx60_test.txt")
	model := filepath.Join(dir, "model.json")
	out1 := run(t, "rcbt", "-train", trainF, "-test", testF, "-k", "2", "-nl", "3", "-save", model)
	if !strings.Contains(out1, "saved model to") {
		t.Fatalf("save missing: %s", out1)
	}
	// The envelope bundles the discretizer, so -load needs no -train.
	out2 := run(t, "rcbt", "-load", model, "-test", testF)
	if !strings.Contains(out2, "loaded model from") {
		t.Fatalf("load missing: %s", out2)
	}
	// Accuracy lines must agree between the trained and reloaded model.
	accOf := func(out string) string {
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, "test accuracy:") {
				return l
			}
		}
		return ""
	}
	if a, b := accOf(out1), accOf(out2); a == "" || a != b {
		t.Fatalf("accuracy mismatch: %q vs %q", a, b)
	}

	// A save that cannot be written must fail the command, not print
	// "saved model to".
	bad := filepath.Join(dir, "missing", "m.json")
	out, err := exec.Command(filepath.Join(binaries(t), "rcbt"),
		"-train", trainF, "-k", "2", "-nl", "3", "-save", bad).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("rcbt -save into a missing directory: %v, want exit status 1\n%s", err, out)
	}
	if !strings.Contains(string(out), "rcbt: ") || !strings.Contains(string(out), "no such file or directory") ||
		strings.Contains(string(out), "saved model to") {
		t.Fatalf("rcbt -save into a missing directory does not name the error:\n%s", out)
	}
}

// TestRcbtservedSmoke trains a model via the CLI, serves it with
// rcbtserved on an ephemeral port, and walks the HTTP API end to end:
// health, model listing, classification of a real test row, metrics.
func TestRcbtservedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	dir := t.TempDir()
	run(t, "datagen", "-profile", "ALL", "-scale", "60", "-out", dir)
	trainF := filepath.Join(dir, "allx60_train.txt")
	testF := filepath.Join(dir, "allx60_test.txt")
	model := filepath.Join(dir, "model.json")
	run(t, "rcbt", "-train", trainF, "-k", "2", "-nl", "3", "-save", model)

	cmd := exec.Command(filepath.Join(binaries(t), "rcbtserved"),
		"-model", "synth="+model, "-addr", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() // best-effort cleanup

	// The server prints its bound address as the first stdout line.
	var base string
	sc := bufio.NewScanner(stdout)
	if sc.Scan() {
		line := sc.Text()
		const marker = "listening on "
		i := strings.Index(line, marker)
		if i < 0 {
			t.Fatalf("unexpected startup line: %q", line)
		}
		base = "http://" + line[i+len(marker):]
	} else {
		t.Fatalf("no startup line: %v", sc.Err())
	}

	get := func(path string) (int, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, buf.String()
	}

	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %s", code, body)
	}
	if code, body := get("/v1/models"); code != http.StatusOK || !strings.Contains(body, `"synth"`) {
		t.Fatalf("models: %d %s", code, body)
	}

	// Classify a genuine row of the held-out test matrix.
	f, err := os.Open(testF)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dataset.ReadMatrix(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	reqBody, _ := json.Marshal(map[string]any{"model": "synth", "values": m.Values[0]})
	resp, err := http.Post(base+"/v1/models/synth/classify", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	var classifyResp struct {
		Class string `json:"class"`
		Label int    `json:"label"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&classifyResp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || classifyResp.Class == "" {
		t.Fatalf("classify: %d %+v", resp.StatusCode, classifyResp)
	}

	if code, body := get("/metrics"); code != http.StatusOK ||
		!strings.Contains(body, `rcbtserved_requests_total{path="/v1/models/{name}/classify",code="200"} 1`) {
		t.Fatalf("metrics: %d\n%s", code, body)
	}

	// Graceful shutdown on SIGTERM.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("server exited with: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down within 10s")
	}
}

// TestRcbtservedJobsShutdown starts rcbtserved with only a data
// directory (no models), submits a deliberately slow mining job over
// HTTP, and SIGTERMs the process mid-run. The process must exit
// cleanly, and the job's journal in the data dir must record the
// cancellation — the on-disk proof that shutdown canceled running
// jobs and waited for their final writes.
func TestRcbtservedJobsShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	dataDir := filepath.Join(t.TempDir(), "data")

	cmd := exec.Command(filepath.Join(binaries(t), "rcbtserved"),
		"-data-dir", dataDir, "-addr", "127.0.0.1:0", "-job-workers", "1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() // best-effort cleanup

	var base string
	sc := bufio.NewScanner(stdout)
	if sc.Scan() {
		line := sc.Text()
		const marker = "listening on "
		i := strings.Index(line, marker)
		if i < 0 {
			t.Fatalf("unexpected startup line: %q", line)
		}
		base = "http://" + line[i+len(marker):]
	} else {
		t.Fatalf("no startup line: %v", sc.Err())
	}

	// Dense random rows make carpenter's minsup=1 closed-set tree far
	// too large to finish within this test — the job is still running
	// whenever we decide to pull the plug.
	rng := rand.New(rand.NewSource(7))
	rows := make([]map[string]any, 52)
	for r := range rows {
		items := []int{}
		for it := 0; it < 72; it++ {
			if rng.Float64() < 0.6 {
				items = append(items, it)
			}
		}
		rows[r] = map[string]any{"items": items, "label": r % 2}
	}
	payload, _ := json.Marshal(map[string]any{
		"kind": "mine", "miner": "carpenter", "minsup": 1,
		"data": map[string]any{
			"classes":  []string{"a", "b"},
			"numItems": 72,
			"rows":     rows,
		},
	})
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || rec.ID == "" {
		t.Fatalf("submit: %d %+v", resp.StatusCode, rec)
	}

	// Wait until the single worker has actually picked the job up.
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := http.Get(base + "/v1/jobs/" + rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur struct {
			State string `json:"state"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&cur); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if cur.State == "running" {
			break
		}
		if cur.State != "queued" {
			t.Fatalf("job state = %q before shutdown", cur.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(10 * time.Millisecond)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("server exited with: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("server did not shut down within 20s")
	}

	data, err := os.ReadFile(filepath.Join(dataDir, "jobs", rec.ID+".json"))
	if err != nil {
		t.Fatalf("journal not written: %v", err)
	}
	var final struct {
		State    string `json:"state"`
		ErrCause string `json:"errCause"`
	}
	if err := json.Unmarshal(data, &final); err != nil {
		t.Fatalf("journal unreadable: %v\n%s", err, data)
	}
	if final.State != "canceled" || final.ErrCause != "canceled" {
		t.Fatalf("journal after shutdown: state=%q cause=%q, want canceled/canceled",
			final.State, final.ErrCause)
	}
}

func TestBenchrunnerJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "table1.json")
	run(t, "benchrunner", "-exp", "table1", "-scale", "60", "-json", jsonPath)
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rows []map[string]any
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("JSON rows = %d, want 4", len(rows))
	}
}
