package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestParsePorts(t *testing.T) {
	cases := []struct {
		in      string
		want    []float64
		wantErr string
	}{
		{in: "100", want: []float64{100}},
		{in: "100, 25,10", want: []float64{100, 25, 10}},
		{in: "0.5", want: []float64{0.5}},
		{in: "abc", wantErr: `bad port rate "abc"`},
		{in: "100,,25", wantErr: `bad port rate ""`},
		{in: "0", wantErr: "positive, finite"},
		{in: "-25", wantErr: "positive, finite"},
		{in: "NaN", wantErr: "positive, finite"},
		{in: "nan", wantErr: "positive, finite"},
		{in: "+Inf", wantErr: "positive, finite"},
		{in: "-Inf", wantErr: "positive, finite"},
	}
	for _, tc := range cases {
		got, err := parsePorts(tc.in)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("parsePorts(%q) err = %v, want containing %q", tc.in, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("parsePorts(%q): %v", tc.in, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("parsePorts(%q) = %v, want %v", tc.in, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("parsePorts(%q)[%d] = %v, want %v", tc.in, i, got[i], tc.want[i])
			}
		}
	}
}

func TestValidateTaskFlags(t *testing.T) {
	for _, k := range taskDUTKinds {
		if err := validateTaskFlags(k, time.Millisecond); err != nil {
			t.Errorf("validateTaskFlags(%q): %v", k, err)
		}
	}
	if err := validateTaskFlags("toaster", time.Millisecond); err == nil ||
		!strings.Contains(err.Error(), `unknown DUT kind "toaster"`) {
		t.Errorf("unknown DUT: err = %v", err)
	}
	if err := validateTaskFlags("sink", 0); err == nil ||
		!strings.Contains(err.Error(), "must be positive") {
		t.Errorf("zero duration: err = %v", err)
	}
	if err := validateTaskFlags("sink", -time.Second); err == nil {
		t.Error("negative duration accepted")
	}
}

// TestRunExitCodes drives run() through its validation error paths: every
// bad invocation must exit 2 with a diagnostic on stderr.
func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"no input", []string{}, "-task or -suite is required"},
		{"bad rate", []string{"-task", "x.nt", "-ports", "0"}, "positive, finite"},
		{"nan rate", []string{"-task", "x.nt", "-ports", "NaN"}, "positive, finite"},
		{"bad duration", []string{"-task", "x.nt", "-duration", "-1ms"}, "must be positive"},
		{"unknown dut", []string{"-task", "x.nt", "-dut", "toaster"}, `unknown DUT kind "toaster"`},
		{"missing task file", []string{"-task", "/nonexistent/x.nt"}, "read task"},
		{"missing suite file", []string{"-suite", "/nonexistent/s.json"}, "suite:"},
		{"negative simworkers", []string{"-suite", "s.json", "-simworkers", "-1"}, "negative"},
		{"bad flag", []string{"-frobnicate"}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("run(%v) = %d, want 2 (stderr: %s)", tc.args, code, stderr.String())
			}
			if tc.wantErr != "" && !strings.Contains(stderr.String(), tc.wantErr) {
				t.Errorf("stderr = %q, want containing %q", stderr.String(), tc.wantErr)
			}
		})
	}
}

// TestRunSuiteMode runs a tiny real suite through the CLI path end to end:
// a passing scenario exits 0, a failing check exits 1, and the -results
// file is valid JSON recording both.
func TestRunSuiteMode(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	suite := `{
  "name": "cli-test",
  "scenarios": [
    {
      "name": "tiny",
      "topology": {"ports": [100], "dut": "sink"},
      "program": {
        "name": "tiny",
        "source": [
          "T1 = trigger()",
          "    .set([dip, sip, proto, dport, sport], [9.9.9.9, 1.1.0.1, udp, 1, 1])",
          "    .set(length, 64)",
          "    .set(port, 0)"
        ]
      },
      "traffic": {"window_us": 20, "seed": 1},
      "checks": [
        {"name": "traffic flowed", "kind": "threshold", "metric": "sink0.rx_packets", "op": ">", "value": 100},
        {"name": "CHECKVAL", "kind": "threshold", "metric": "sink0.gbps", "op": ">=", "value": GBPS}
      ]
    }
  ]
}`
	write := func(gbps string) string {
		path := filepath.Join(dir, "suite-"+gbps+".json")
		body := strings.ReplaceAll(suite, "GBPS", gbps)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	var stdout, stderr bytes.Buffer
	results := filepath.Join(dir, "results.json")
	code := run([]string{"-suite", write("50"), "-results", results}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("passing suite: exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "PASS") || !strings.Contains(stdout.String(), "1 passed, 0 failed") {
		t.Errorf("stdout missing pass summary: %s", stdout.String())
	}
	data, err := os.ReadFile(results)
	if err != nil {
		t.Fatalf("results file: %v", err)
	}
	var decoded struct {
		Suite  string `json:"suite"`
		Pass   bool   `json:"pass"`
		Passed int    `json:"passed"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("results file is not JSON: %v", err)
	}
	if decoded.Suite != "cli-test" || !decoded.Pass || decoded.Passed != 1 {
		t.Errorf("results = %+v, want cli-test/pass/1", decoded)
	}

	stdout.Reset()
	stderr.Reset()
	code = run([]string{"-suite", write("100000")}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("failing suite: exit %d, want 1\nstdout: %s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "FAIL") || !strings.Contains(stdout.String(), `check "CHECKVAL"`) {
		t.Errorf("stdout missing failing check detail: %s", stdout.String())
	}
}

// TestRunTaskOutputIsDeterministic runs a 64-key reduce through -task twice:
// the printed report, including the key it names first, must be
// byte-identical.
func TestRunTaskOutputIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	path := filepath.Join(t.TempDir(), "keys.nt")
	task := `T1 = trigger()
    .set([sip, proto, dport, sport], [1.1.0.1, udp, 7, 7])
    .set(dip, range(167772160, 167772223, 1))
    .set(loop, 2)
    .set(port, 0)
Q1 = query(T1).reduce(func=count, keys={ipv4.dip})
`
	if err := os.WriteFile(path, []byte(task), 0o644); err != nil {
		t.Fatal(err)
	}
	var outs [2]string
	for i := range outs {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-task", path, "-duration", "100us"}, &stdout, &stderr); code != 0 {
			t.Fatalf("run %d: exit %d\nstderr: %s", i, code, stderr.String())
		}
		outs[i] = stdout.String()
	}
	if !strings.Contains(outs[0], "(64 keys; first:") {
		t.Fatalf("report does not list 64 keys:\n%s", outs[0])
	}
	if outs[0] != outs[1] {
		t.Fatalf("two runs printed different reports:\n%s\n---\n%s", outs[0], outs[1])
	}
}
