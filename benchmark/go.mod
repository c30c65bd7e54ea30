module cinct/benchmark

go 1.24

require cinct v0.0.0

replace cinct => ../
