module github.com/mahif/mahif/bench

go 1.22

require github.com/mahif/mahif v0.0.0

replace github.com/mahif/mahif => ../
