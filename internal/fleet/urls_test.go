package fleet_test

import (
	"reflect"
	"strings"
	"testing"

	"secdir/internal/fleet"
)

// TestParseWorkerURLs: a worker list entry the coordinator could never reach
// is rejected up front, naming the entry, instead of leaving a worker that
// never turns alive; blanks and trailing slashes are dropped.
func TestParseWorkerURLs(t *testing.T) {
	got, err := fleet.ParseWorkerURLs(" http://a:8373/, ,https://b:8374")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"http://a:8373", "https://b:8374"}; !reflect.DeepEqual(got, want) {
		t.Errorf("ParseWorkerURLs = %q, want %q", got, want)
	}
	if got, err := fleet.ParseWorkerURLs(""); err != nil || len(got) != 0 {
		t.Errorf(`ParseWorkerURLs("") = %q, %v; want no workers, no error`, got, err)
	}

	for _, bad := range []string{"localhost:8373", "http://", "ftp://host:8373"} {
		_, err := fleet.ParseWorkerURLs("http://ok:8373," + bad)
		if err == nil || !strings.Contains(err.Error(), bad) {
			t.Errorf("ParseWorkerURLs(%q): err %v, want an error naming it", bad, err)
		}
	}
}
