module dio/bench

go 1.22

require dio v0.0.0

replace dio => ../
