package golden

import "testing"

// TestEncode: RFC 4180 quoting, empty cells and a trailing newline, exactly
// as the committed data/ files are laid out.
func TestEncode(t *testing.T) {
	got := string(Encode([]string{"a", "b"}, [][]string{{"x,y", ""}, {`q"uote`, "1"}}))
	want := "a,b\n\"x,y\",\n\"q\"\"uote\",1\n"
	if got != want {
		t.Fatalf("Encode = %q, want %q", got, want)
	}
}
