module imitator/benchmark

go 1.24

require imitator v0.0.0

replace imitator => ../
