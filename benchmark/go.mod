module dosgi/benchmark

go 1.24

require dosgi v0.0.0

replace dosgi => ../
