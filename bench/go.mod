// lockd-bench is a module of its own so the benchmark carries its build
// file with it. The module path sits under locksafe/ on purpose: Go's
// internal-package rule is checked against import paths, so this module
// may import locksafe/internal/... through the replace below.
module locksafe/bench

go 1.24

require locksafe v0.0.0

replace locksafe => ../
