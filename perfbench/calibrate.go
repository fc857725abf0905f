package main

import (
	"bytes"
	"fmt"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/crypto/aes"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/rsa"
	"repro/internal/crypto/sha1"
)

// kernelCosts is the crypto calibration: the median host time of one
// call into each kernel's public function, outside any protocol.
type kernelCosts struct {
	rsaDecryptUs, aesCBC16kUs, hmac16kUs float64
}

const calibrationCalls = 101

// calibrate times the kernels the serving path uses: an RSA PKCS#1
// decrypt under key (the workload's key size), AES-128-CBC over 16 KiB
// in place, and HMAC-SHA1 over 16 KiB.
func calibrate(key *rsa.PrivateKey, seed uint64) (kernelCosts, error) {
	rng := prng.NewXorshift(subSeed(seed, "calibrate"))
	secret := rng.Bytes(32)
	ct, err := key.PublicKey.EncryptPKCS1(rng, secret)
	if err != nil {
		return kernelCosts{}, fmt.Errorf("calibrate rsa: %w", err)
	}
	var kc kernelCosts
	var callErr error
	kc.rsaDecryptUs = medianCallUs(func() {
		pt, err := key.DecryptPKCS1(ct)
		if err == nil && !bytes.Equal(pt, secret) {
			err = fmt.Errorf("decrypt returned the wrong plaintext")
		}
		if err != nil && callErr == nil {
			callErr = fmt.Errorf("calibrate rsa: %w", err)
		}
	})
	c, err := aes.NewAES(rng.Bytes(16))
	if err != nil {
		return kc, fmt.Errorf("calibrate aes: %w", err)
	}
	iv, buf := rng.Bytes(16), rng.Bytes(16<<10)
	kc.aesCBC16kUs = medianCallUs(func() {
		if err := c.EncryptCBCInPlace(iv, buf); err != nil && callErr == nil {
			callErr = fmt.Errorf("calibrate aes: %w", err)
		}
	})
	mac := sha1.NewHMAC(rng.Bytes(20))
	var sum [sha1.Size]byte
	kc.hmac16kUs = medianCallUs(func() {
		mac.Reset()
		mac.Write(buf)
		mac.SumInto(&sum)
	})
	return kc, callErr
}

func medianCallUs(f func()) float64 {
	f() // warm caches and lazily built tables (RSA CRT values)
	d := make([]float64, calibrationCalls)
	for i := range d {
		t := time.Now()
		f()
		d[i] = float64(time.Since(t)) / 1e3
	}
	return median(d)
}

// runtimeSample is the process counters go.* metrics are deltas of.
type runtimeSample struct {
	at         time.Time
	allocBytes uint64
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds, as the Go runtime accounts it
	rusageCPU  time.Duration
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func sampleRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	s := runtimeSample{at: time.Now()}
	if ms[0].Value.Kind() == metrics.KindUint64 {
		s.allocBytes = ms[0].Value.Uint64()
	}
	if ms[1].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = ms[1].Value.Float64()
	}
	if ms[2].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = ms[2].Value.Float64()
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.rusageCPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return s
}

// peakRSSMB is the process's peak resident set so far, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
