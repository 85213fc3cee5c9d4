module nvramfs/bench

go 1.22

require nvramfs v0.0.0

replace nvramfs => ../
