module fibcomp/bench

go 1.22

require fibcomp v0.0.0

replace fibcomp => ../
