package fsim

import "fmt"

// CircLog manages a file as a circular queue of lines with a configurable
// maximum length, as the paper's persistent-state performance logs are
// managed ("each file produced by persistent state processes was managed as
// a circular queue, the length of which was configurable").
type CircLog struct {
	fs   *FS
	path string
	max  int
}

// NewCircLog returns a circular log writing to path on fs, keeping at most
// max lines. max must be positive.
func NewCircLog(fs *FS, path string, max int) (*CircLog, error) {
	if max <= 0 {
		return nil, fmt.Errorf("fsim: circular log %s: non-positive max %d", path, max)
	}
	return &CircLog{fs: fs, path: path, max: max}, nil
}

// Max reports the configured maximum line count.
func (c *CircLog) Max() int { return c.max }

// Path reports the backing file path.
func (c *CircLog) Path() string { return c.path }

// Append adds a line, discarding the oldest lines once the file exceeds the
// maximum. The write is a single capped append on the backing file, not a
// read-modify-rewrite: dropping the oldest line only moves the start of the
// file's window over its line array, and the window is copied back to the
// front only when it reaches the end of an array of about 1.25×max slots.
// Each append is therefore amortised O(1), whatever the configured length.
func (c *CircLog) Append(line string) error {
	return c.fs.AppendLineCapped(c.path, line, c.max)
}

// Lines returns the current contents, oldest first.
func (c *CircLog) Lines() []string {
	lines, err := c.fs.ReadLines(c.path)
	if err != nil {
		return nil
	}
	return lines
}

// Len reports the current number of lines without copying them.
func (c *CircLog) Len() int {
	n, err := c.fs.LineCount(c.path)
	if err != nil {
		return 0
	}
	return n
}

// Tail returns the newest n lines (fewer if the log is shorter), copying
// only those.
func (c *CircLog) Tail(n int) []string {
	lines, err := c.fs.TailLines(c.path, n)
	if err != nil {
		return nil
	}
	return lines
}
