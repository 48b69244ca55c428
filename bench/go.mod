// The benchmark is its own module so its build file lives with it; it
// reaches the IDS packages through the parent module on disk.
module scidive/bench

go 1.22

require scidive v0.0.0

replace scidive => ../
