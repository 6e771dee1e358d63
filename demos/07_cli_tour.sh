#!/bin/sh
# Tour of the command-line interface.  Every command emits JSON (or CSV
# with --format csv) and uses exit codes: 0 ok, 1 usage, 2 numerical
# failure, 3 exact-identity failure.
set -e

echo '== curvature of the model metric (exact mode) =='
alhlab curvature --metric gh --exact

echo
echo '== curvature of the rescaled metric at a rational point =='
alhlab curvature --metric a --at "1/2,0,1/3,0"

echo
echo '== indicial roots and Fredholm weights of the scalar operator =='
alhlab indicial --operator scalar --weights

echo
echo '== even-parity block =='
alhlab indicial --operator d00-even

echo
echo '== decaying mode solve with expansion fit =='
alhlab modes solve --k 0 --m 1,1 --grid 800 --fit

echo
echo '== second-derivative report of the scaling family =='
alhlab deform --family calabi-scaling --param 0.8 --report-mm

echo
echo '== large scaling parameter: Richardson step 1e-3 in s = alpha t =='
alhlab deform --family calabi-scaling --param 500

echo
echo '== modulus family: the Richardson cross-check samples exact Fractions =='
alhlab deform --family calabi-modulus --param 0.3,0.05

echo
echo '== jets on Fractions: no rounding of their own against the 1e-9 gate =='
alhlab deform --family calabi-scaling --param 1e5

echo
echo '== the modulus step shrinks with max(1, alpha^2, beta^2) =='
alhlab deform --family calabi-modulus --param 50,0.5
alhlab deform --family calabi-modulus --param 1e5,1

echo
echo '== closed forms run on Fractions: W(0) = 4 alpha^2 is below the float range =='
alhlab deform --family calabi-modulus --param 1e-300,0.5

echo
echo '== polar symmetrization near the float maximum: A is prescaled by a power of two =='
alhlab deform --family sf-theta --param 1.5e308

echo
echo '== option values may start with a minus sign =='
alhlab modes solve --k 1 --m -1,0 --grid 800 --fit
alhlab deform --family calabi-modulus --param -0.3,0.9

echo
echo '== exact scalar curvature from the Ricci tensor alone =='
alhlab curvature --metric calabi:12 --exact
alhlab curvature --metric calabi:100 --exact

echo
echo '== dimension table at b = 1 =='
alhlab cohomology --b 1

echo
echo '== exact checks: blowup lifts and the standard triple =='
alhlab lift-check
alhlab triple-q

echo
echo '== CSV output goes through --format, files through --output =='
alhlab --format csv cohomology --b 3
