"""The split series' values pinned bit for bit.

(value, first-series terms, second-series terms, tail bound, noise bound)
as float hex, recorded when the series began to stop at one contour cut:
of ``g_series`` and ``gprime_series`` at the rational alphas of the
benchmark's grid with its rho, split at delta = 0, and near 3/2 and at
0.5 + sqrt2/40 at rho 0.5 as the series decides at each beta; and of the
split at their pairing convergents (3/2 and 53/99), called directly as
``_split(_plan(...), beta)`` with the checks of a paired split.  The pins
at sqrt 2 (rho 0.5) and pi/2 (rho 0.45), where the series sums
generically at every beta, were recorded while the generic sum was a
separate body, before it became the split at alpha's own ratio.  Three
near 3/2 (g at beta 0.01 and 0.1, g' at 0.01) were re-recorded when the
generic sum stopped refusing on a divisor-floor estimate and began to
return them with its summed noise under half the tolerance, and the five
noise pins of g' at 0.3 when the noise began to count the rounding of the
exponents alpha k - 1 below -1/2.  Each is
checked cold, every table and plan cleared before the call, and warm,
after every case has filled them, and each value lies within its tail and
noise bounds of the 30-digit integral (``tests/oracles.g_mpmath`` or
``gprime_mpmath``), stored as float hex with its error estimate in
``ORACLE``.  After an intended change, or to pin a new case (an alpha
added to ``RHO``, its pairing convergent to ``PAIRED``), print both tables
from the current tree with

    PYTHONPATH=src python tests/test_split_pins.py

and name every changed pin in CHANGES.md.
"""

import math
import sys

import pytest

from stablekappa import SeriesReport, Tolerance, g_series, gprime_series, validate
from stablekappa import series as series_module

SQRT2 = math.sqrt(2.0)
BETAS = (0.01, 0.1, 0.5, 0.9, 0.94)
SERIES = {"g": g_series, "gprime": gprime_series}
RHO = {0.3: 0.5, 0.8: 0.25, 1.0: 0.5, 1.5: 2.0 / 3.0, 1.9: 0.5, 2.0: 0.5,
       1.50000001: 0.5, 0.5 + SQRT2 / 40.0: 0.5, SQRT2: 0.5, math.pi / 2.0: 0.45}
# the pairing convergents split at directly, besides the series' own form
PAIRED = {1.50000001: (3, 2), 0.5 + SQRT2 / 40.0: (53, 99)}

# (alpha, pairing convergent split at directly or None, series): one pin
# per beta of BETAS
PINS = {
    (0.3, None, "g"): (
        ("0x1.ef66a2b7330c6p-4", 5, 16, "0x1.8e32ad13ddd3cp-39", "0x1.469bfa08b9cd8p-52"),
        ("0x1.b8912ee6d559cp-3", 9, 28, "0x1.bc41174578260p-37", "0x1.c55cd0d090f18p-51"),
        ("0x1.3deed3847b10cp-2", 28, 86, "0x1.0fb636ebb3841p-35", "0x1.45bcfb5bdea8ap-49"),
        ("0x1.6881395122500p-2", 170, 512, "0x1.386759ec6122fp-35", "0x1.4d8689b3b6474p-48"),
        ("0x1.6bcdf727990dep-2", 279, 838, "0x1.478ce016402c3p-35", "0x1.7c9beb1d8fbf9p-48"),
    ),
    (0.3, None, "gprime"): (
        ("0x1.9453fb7d2a2fbp+1", 6, 19, "0x1.29ea6c03e2274p-38", "0x1.a37dd27cc5a02p-47"),
        ("0x1.05efe787e7c21p-1", 11, 34, "0x1.d0b2036497ac4p-36", "0x1.3a2ccc9b0d895p-48"),
        ("0x1.14e1ac1d66f2cp-3", 34, 103, "0x1.2b7f2ab2371b9p-35", "0x1.1110b9e1d866ep-48"),
        ("0x1.50326e7155c4cp-4", 218, 656, "0x1.4871aabf62a72p-35", "0x1.d31ede8b3756fp-47"),
        ("0x1.43eb98bcb1d94p-4", 371, 1115, "0x1.463bf8a485bc5p-35", "0x1.7bd7b9f2af6aep-46"),
    ),
    (0.8, None, "g"): (
        ("0x1.f84792fc431a6p-7", 5, 5, "0x1.23bf7d6dd56ddp-37", "0x1.a0cdf14bd2e18p-55"),
        ("0x1.133c2c45633f4p-4", 10, 11, "0x1.608eedd6939abp-38", "0x1.615adaadda533p-52"),
        ("0x1.49b478c34a0e8p-3", 30, 31, "0x1.3bf2ae2397a9cp-35", "0x1.aeb57771377b6p-50"),
        ("0x1.b3c2d91f48760p-3", 175, 176, "0x1.41fc959e102ffp-35", "0x1.26a3f1f20e7d9p-48"),
        ("0x1.bc718a61f491ep-3", 291, 292, "0x1.314557574fdcdp-35", "0x1.5d0b9a2b3cd1cp-48"),
    ),
    (0.8, None, "gprime"): (
        ("0x1.0d1a7af10ced1p+0", 6, 7, "0x1.24a86d00aa924p-36", "0x1.07d8342c8e6dap-48"),
        ("0x1.95187f394e4a1p-2", 11, 12, "0x1.7f5724240e5e2p-36", "0x1.818377cd49fb9p-49"),
        ("0x1.458761a740f16p-3", 35, 36, "0x1.f2f10e3ce6d63p-36", "0x1.06b1353feda89p-48"),
        ("0x1.b8baf1cd06e58p-4", 227, 228, "0x1.061c10c2b3141p-35", "0x1.0d2d1fd5e277ap-46"),
        ("0x1.aba82ec7bdf50p-4", 383, 384, "0x1.3f1f945ab6a26p-35", "0x1.b7b1c909cdcfbp-46"),
    ),
    (1.0, None, "g"): (
        ("0x1.24b8a21e6e5b7p-6", 5, 0, "0x1.b267f93e734bep-40", "0x1.24bad617b6f10p-55"),
        ("0x1.b7a3e44ad38cdp-4", 9, 0, "0x1.f11130cfb35c1p-36", "0x1.b8d646d1544eep-53"),
        ("0x1.40afd54073f0dp-2", 30, 0, "0x1.426be5d8c2b8ap-36", "0x1.57346301365aap-51"),
        ("0x1.c18c474f61f63p-2", 177, 0, "0x1.3da7b04368062p-35", "0x1.3aea24d7674d1p-50"),
        ("0x1.cc578d879bf3cp-2", 294, 0, "0x1.3527ad595658ap-35", "0x1.5ebe029072beap-50"),
    ),
    (1.0, None, "gprime"): (
        ("0x1.78816053ce959p+0", 6, 0, "0x1.2aa77b5aef443p-37", "0x1.788b040a2d12ep-49"),
        ("0x1.8ce4e2ce192a7p-1", 11, 0, "0x1.d836bb2bb7312p-36", "0x1.90e732abef48ap-50"),
        ("0x1.818b706352119p-2", 35, 0, "0x1.334ed71299980p-35", "0x1.0107a0420c0bcp-50"),
        ("0x1.118f2910734eep-2", 227, 0, "0x1.42e080b922cb5p-35", "0x1.67f24380f8987p-49"),
        ("0x1.0a37cf95edffdp-2", 386, 0, "0x1.468282fcd053ep-35", "0x1.1de315063b6ecp-48"),
    ),
    (1.5, None, "g"): (
        ("0x1.460d6cccbaa94p-7", 5, 2, "0x1.7d9b3b3309eb1p-37", "0x1.47b0e059d0260p-56"),
        ("0x1.8663f79465b20p-4", 9, 3, "0x1.20e00f82e893bp-35", "0x1.9af93cd224203p-53"),
        ("0x1.9f323ecbcd01fp-2", 30, 10, "0x1.1739a5fa89595p-35", "0x1.193ea7aaa5013p-50"),
        ("0x1.48a11293bcb2ep-1", 182, 61, "0x1.3bfbc69d250adp-35", "0x1.78e3605fcb176p-49"),
        ("0x1.534bd687840f6p-1", 302, 101, "0x1.3dc661fd38046p-35", "0x1.bcf0cd466af20p-49"),
    ),
    (1.5, None, "gprime"): (
        ("0x1.faee41e6a51c4p-1", 6, 2, "0x1.02a463b94bb38p-36", "0x1.00068de3ade4ep-49"),
        ("0x1.d1745d1743d1cp-1", 12, 4, "0x1.4728c8bbc6e0dp-38", "0x1.0295fad4093bap-49"),
        ("0x1.5555555540001p-1", 36, 12, "0x1.0a22f232cae92p-35", "0x1.5555555540001p-49"),
        ("0x1.0d79435e6a139p-1", 233, 78, "0x1.2933e3e788855p-35", "0x1.50d79435c8aa3p-47"),
        ("0x1.07eae2f830a6ep-1", 395, 132, "0x1.440bf1b812eebp-35", "0x1.12ea01c2505cap-46"),
    ),
    (1.9, None, "g"): (
        ("0x1.462f5db7faaa7p-7", 5, 2, "0x1.e8d66fb60f19bp-38", "0x1.48d075c82703dp-56"),
        ("0x1.822515e2cb3a4p-4", 10, 5, "0x1.2c1ac8d3fc4edp-38", "0x1.9c6bd5f0931e5p-53"),
        ("0x1.938709be48dc0p-2", 31, 15, "0x1.1d74e5436bc41p-36", "0x1.1b438a610cf4cp-50"),
        ("0x1.3d353aed19467p-1", 181, 86, "0x1.2f47f6c79fa2dp-35", "0x1.ad3d62c1fae7cp-49"),
        ("0x1.47596c48c4f5dp-1", 304, 144, "0x1.3feccca386f24p-35", "0x1.115960b71200dp-48"),
    ),
    (1.9, None, "gprime"): (
        ("0x1.fa00525a631c8p-1", 6, 3, "0x1.c245daadac9a5p-37", "0x1.00e75df34435dp-49"),
        ("0x1.c8461aa6f0db6p-1", 12, 6, "0x1.b5a6ae82ea94bp-38", "0x1.038be3614f744p-49"),
        ("0x1.46d776e3349e5p-1", 37, 18, "0x1.313d0978ae1a1p-36", "0x1.5b1e6b72ff412p-49"),
        ("0x1.003f38a35d60ap-1", 232, 110, "0x1.30476758e46c5p-35", "0x1.0ff551c5f3930p-46"),
        ("0x1.f5b8b94b33fa3p-2", 394, 187, "0x1.3da4fd2895d60p-35", "0x1.f386102fc3ae9p-46"),
    ),
    (2.0, None, "g"): (
        ("0x1.460d6cccbaa93p-7", 5, 0, "0x1.ccc1de4ee931dp-39", "0x1.47b0e059d025fp-56"),
        ("0x1.8663f793b5c5dp-4", 10, 0, "0x1.7d9b3b3309eb4p-38", "0x1.9af93cd224200p-53"),
        ("0x1.9f323ecc0f126p-2", 31, 0, "0x1.4b1f84f05e018p-36", "0x1.193ea7aac6096p-50"),
        ("0x1.48a11293c207dp-1", 184, 0, "0x1.36123fd3e21b3p-35", "0x1.78e3605fe4824p-49"),
        ("0x1.534bd687b5458p-1", 305, 0, "0x1.401551e7c4004p-35", "0x1.bcf0cd469c0d8p-49"),
    ),
    (2.0, None, "gprime"): (
        ("0x1.faee41e6a51c1p-1", 6, 0, "0x1.3cc548d640524p-36", "0x1.00068de3ade4dp-49"),
        ("0x1.d1745d1743d1cp-1", 12, 0, "0x1.90afcaf597371p-38", "0x1.0295fad4093bap-49"),
        ("0x1.5555555540000p-1", 36, 0, "0x1.45f306dc9c898p-35", "0x1.5555555540000p-49"),
        ("0x1.0d79435e3a218p-1", 234, 0, "0x1.479904d974e7bp-35", "0x1.50d79435c8aa6p-47"),
        ("0x1.07eae2f7fe3e0p-1", 398, 0, "0x1.49a3396014d16p-35", "0x1.12ea01c2537ffp-46"),
    ),
    (1.50000001, None, "g"): (
        ("0x1.633a413d7f400p-7", 5, 3, "0x1.47175170ba983p-37", "0x1.fe08eacc5fcaep-47"),
        ("0x1.7f1daa5370000p-4", 11, 7, "0x1.b24e3ac26d298p-41", "0x1.f15dd160f083ep-37"),
        ("0x1.68c29be562f60p-2", 30, 10, "0x1.deabffcbc2d4ep-36", "0x1.38d330d71641ep-50"),
        ("0x1.1160ffc8a54e4p-1", 182, 61, "0x1.0ed7b4c415f2ep-35", "0x1.76aefe62568cdp-49"),
        ("0x1.196a6b090e139p-1", 300, 100, "0x1.364ff7cb4b93cp-35", "0x1.b2124d0a9d80cp-49"),
    ),
    (1.50000001, None, "gprime"): (
        ("0x1.0c81ba61b4800p+0", 6, 4, "0x1.bb62f5bb33048p-37", "0x1.2a8f52f6c6e44p-38"),
        ("0x1.a938bc6d4fda4p-1", 12, 4, "0x1.186c1bb185e9ep-38", "0x1.2a81742ded6c8p-49"),
        ("0x1.0c6c963e3ac0bp-1", 36, 12, "0x1.c83bf1406f618p-36", "0x1.5e28948c3ef4cp-49"),
        ("0x1.968f16563c33ap-2", 231, 77, "0x1.3a803427fdaf9p-35", "0x1.272650005800fp-47"),
        ("0x1.8d32f859cacfep-2", 393, 131, "0x1.3a584bcfcdf2ep-35", "0x1.de4e67a7e08cdp-47"),
    ),
    (1.50000001, (3, 2), "g"): (
        ("0x1.633a413d7f289p-7", 5, 2, "0x1.47175170ba983p-37", "0x1.7a65e5722e773p-56"),
        ("0x1.7f1daa53845e9p-4", 9, 3, "0x1.ef36f7b258c94p-36", "0x1.dab6f9c0d0692p-53"),
        ("0x1.68c29be562f60p-2", 30, 10, "0x1.deabffcbc2d4ep-36", "0x1.38d330d71641ep-50"),
        ("0x1.1160ffc8a54e4p-1", 182, 61, "0x1.0ed7b4c415f2ep-35", "0x1.76aefe62568cdp-49"),
        ("0x1.196a6b090e139p-1", 300, 100, "0x1.364ff7cb4b93cp-35", "0x1.b2124d0a9d80cp-49"),
    ),
    (1.50000001, (3, 2), "gprime"): (
        ("0x1.0c81ba61b46b5p+0", 6, 2, "0x1.bb62f5bb33048p-37", "0x1.27a8def532938p-49"),
        ("0x1.a938bc6d4fda4p-1", 12, 4, "0x1.186c1bb185e9ep-38", "0x1.2a81742ded6c8p-49"),
        ("0x1.0c6c963e3ac0bp-1", 36, 12, "0x1.c83bf1406f618p-36", "0x1.5e28948c3ef4cp-49"),
        ("0x1.968f16563c33ap-2", 231, 77, "0x1.3a803427fdaf9p-35", "0x1.272650005800fp-47"),
        ("0x1.8d32f859cacfep-2", 393, 131, "0x1.3a584bcfcdf2ep-35", "0x1.de4e67a7e08cdp-47"),
    ),
    (0.5353553390593274, None, "g"): (
        ("0x1.c33c3986a4ee7p-5", 5, 10, "0x1.6b4e3e6edec6ep-40", "0x1.47bcedb6328fap-53"),
        ("0x1.433b8e45fd651p-3", 9, 17, "0x1.b6c466cafc354p-36", "0x1.a56bb68d95d51p-51"),
        ("0x1.3433a658d9300p-2", 30, 56, "0x1.5d9db88bb8555p-36", "0x1.af72127da1a89p-49"),
        ("0x1.7d3bd6c75d260p-2", 177, 331, "0x1.958acea92635cp-36", "0x1.0d273b68978fdp-47"),
        ("0x1.83138bcb5e9dcp-2", 296, 553, "0x1.9ca3f495cf478p-36", "0x1.699266314358cp-47"),
    ),
    (0.5353553390593274, None, "gprime"): (
        ("0x1.53ed038c8196dp+1", 6, 12, "0x1.b806133752938p-37", "0x1.4a062b0bf0807p-47"),
        ("0x1.596284e2e4420p-1", 11, 21, "0x1.2ba99e6f7d139p-36", "0x1.a06edac8d35b2p-48"),
        ("0x1.cba939782c570p-3", 35, 66, "0x1.7e1ae9966fafdp-36", "0x1.bb6eb84f3f920p-48"),
        ("0x1.29051646b9898p-3", 228, 426, "0x1.b443ed1595b85p-36", "0x1.412a1153d9ba0p-45"),
        ("0x1.1f5bdf273ae00p-3", 388, 725, "0x1.829645fa777cbp-36", "0x1.06312677d826ap-43"),
    ),
    (0.5353553390593274, (53, 99), "g"): (
        ("0x1.c33c398663701p-5", 5, 9, "0x1.d5e6d118ceefcp-36", "0x1.47bcedb611d07p-53"),
        ("0x1.433b8e45fd651p-3", 9, 17, "0x1.d784c5b824f11p-36", "0x1.a56bb68d95d51p-51"),
        ("0x1.3433a658b4158p-2", 29, 55, "0x1.cc96da1ab704dp-36", "0x1.af72127d9861fp-49"),
        ("0x1.7d3bd6c7acb2cp-2", 175, 324, "0x1.2a220ed0ab10ap-35", "0x1.08d2e0216122dp-47"),
        ("0x1.83138bcb79acbp-2", 289, 535, "0x1.2ef85bf070a5ep-35", "0x1.3e2d6d70cdf82p-47"),
    ),
    (0.5353553390593274, (53, 99), "gprime"): (
        ("0x1.53ed038c8196dp+1", 6, 12, "0x1.b806133752938p-37", "0x1.4a062b0bf0807p-47"),
        ("0x1.596284e2e4420p-1", 11, 21, "0x1.2ba99e6f7d139p-36", "0x1.a06edac8d35b2p-48"),
        ("0x1.cba939782c570p-3", 35, 66, "0x1.d5a4538113cadp-36", "0x1.bb6eb84f3f920p-48"),
        ("0x1.2905164746137p-3", 223, 413, "0x1.385f6c235d358p-35", "0x1.016c7d726855fp-45"),
        ("0x1.1f5bdf26b7d88p-3", 380, 703, "0x1.49562a5941bbdp-35", "0x1.b4e5797166072p-45"),
    ),
    (1.4142135623730951, None, "g"): (
        ("0x1.73b36c2980e48p-7", 5, 3, "0x1.8b40920757e42p-38", "0x1.9be284a5d0546p-56"),
        ("0x1.82921a90f6283p-4", 10, 7, "0x1.cbea4e0ffd643p-39", "0x1.044317630082cp-52"),
        ("0x1.609c57aac84e1p-2", 30, 21, "0x1.99a12ba917be8p-36", "0x1.8f56d570609f4p-50"),
        ("0x1.087526f003455p-1", 184, 130, "0x1.6dfc8c69eb551p-36", "0x1.67ced59c58615p-48"),
        ("0x1.100ade66dc980p-1", 307, 217, "0x1.501b809faa537p-36", "0x1.cba330a966c03p-48"),
    ),
    (1.4142135623730951, None, "gprime"): (
        ("0x1.1572b7ceebb12p+0", 6, 4, "0x1.7d7ff942c6e10p-36", "0x1.41e1c612f2e84p-49"),
        ("0x1.a3c5411b3fbd4p-1", 12, 8, "0x1.e3fe6a3f68234p-38", "0x1.4bf12f6f76452p-49"),
        ("0x1.ff77dc83fdd20p-2", 37, 26, "0x1.8525c0e5e3ad2p-37", "0x1.1c00ddb26fb20p-48"),
        ("0x1.7fcd0aa3dcda6p-2", 235, 166, "0x1.5c90b7e0a2cf7p-36", "0x1.d1d0f63a82ed4p-46"),
        ("0x1.76c2c3c3359f8p-2", 399, 282, "0x1.6b3bc2a01c515p-36", "0x1.aa665315836dbp-45"),
    ),
    (1.5707963267948966, None, "g"): (
        ("0x1.514ee59f13af3p-7", 5, 3, "0x1.157ef55b095d6p-39", "0x1.64a220130da70p-56"),
        ("0x1.6c8e5ef1762b7p-4", 10, 6, "0x1.7390a12158f5ep-37", "0x1.c9b3cbbe55332p-53"),
        ("0x1.56321ec657469p-2", 30, 19, "0x1.a5dd755d75705p-36", "0x1.7f938c42bdde1p-50"),
        ("0x1.02dc32d7ac049p-1", 184, 117, "0x1.750b9b0c1bd35p-36", "0x1.a41dd8cb0d851p-48"),
        ("0x1.0a6fbed6c4badp-1", 305, 194, "0x1.7dc6f57403d04p-36", "0x1.1958688aa4107p-47"),
    ),
    (1.5707963267948966, None, "gprime"): (
        ("0x1.feea81fa12c7ap-1", 7, 4, "0x1.018499646d3cep-38", "0x1.17326bd6e2fddp-49"),
        ("0x1.9451a7605b0a3p-1", 13, 8, "0x1.2cbe8d40c8052p-41", "0x1.28e1071a1fdf3p-49"),
        ("0x1.fb39dbd461128p-2", 38, 24, "0x1.89200d3c5d32dp-38", "0x1.28b46a53872e2p-48"),
        ("0x1.7f4acc69ce8e8p-2", 236, 150, "0x1.4e426791cab43p-36", "0x1.4b1c991206422p-45"),
        ("0x1.766b295d3e500p-2", 399, 254, "0x1.ad5b802c0965ap-36", "0x1.2ebd272c4235fp-44"),
    ),
}
# (value, error estimate) of the 30-digit integral per (alpha, series) and
# beta of BETAS
ORACLE = {
    (0.3, "g"): (
        ("0x1.ef66a2b73e81dp-4", "0x1.087117f7d1080p-108"),
        ("0x1.b8912ee6f4764p-3", "0x1.5284dbc0a2ef5p-115"),
        ("0x1.3deed3844b64cp-2", "0x1.1ecf49cd95859p-138"),
        ("0x1.68813950f6e3dp-2", "0x1.31040668b8312p-128"),
        ("0x1.6bcdf727651f0p-2", "0x1.15497aeef7aa7p-127"),
    ),
    (0.3, "gprime"): (
        ("0x1.9453fb7d2ac66p+1", "0x1.44f2326c4f0e4p-120"),
        ("0x1.05efe787d6a14p-1", "0x1.fc3c44a06f161p-114"),
        ("0x1.14e1ac1d22a27p-3", "0x1.03f4f373ac72ep-123"),
        ("0x1.50326e7084638p-4", "0x1.a416ff4b7f378p-127"),
        ("0x1.43eb98bd66b1cp-4", "0x1.a416ff8a4ce39p-127"),
    ),
    (0.8, "g"): (
        ("0x1.f84792fcad270p-7", "0x1.6a2d828a528d5p-152"),
        ("0x1.133c2c455af20p-4", "0x1.325c9cc4470cfp-122"),
        ("0x1.49b478c319966p-3", "0x1.21820acd99d6ep-155"),
        ("0x1.b3c2d91f1ac8ep-3", "0x1.918efa91a9e69p-139"),
        ("0x1.bc718a61c8d9fp-3", "0x1.f5f19127483fap-136"),
    ),
    (0.8, "gprime"): (
        ("0x1.0d1a7af10c2ccp+0", "0x1.9f4ee9207b2e0p-146"),
        ("0x1.95187f39473c0p-2", "0x1.325c9cc446ebep-119"),
        ("0x1.458761a722170p-3", "0x1.a51564806522fp-155"),
        ("0x1.b8baf1ccbc706p-4", "0x1.2b2e7117ad450p-109"),
        ("0x1.aba82ec7627f8p-4", "0x1.918e0db85a4e2p-136"),
    ),
    (1.0, "g"): (
        ("0x1.24b8a21e7411ap-6", "0x1.b142cef9e62bbp-122"),
        ("0x1.b7a3e44b1eb37p-4", "0x1.55deb712269e9p-115"),
        ("0x1.40afd5405aa01p-2", "0x1.0ec9c12ec2bf6p-118"),
        ("0x1.c18c474f8fffbp-2", "0x1.0ed0afcdb7d20p-118"),
        ("0x1.cc578d876e07cp-2", "0x1.0eca72a15f5b7p-118"),
    ),
    (1.0, "gprime"): (
        ("0x1.78816053ccf79p+0", "0x1.527c317b04d01p-115"),
        ("0x1.8ce4e2ce0fe01p-1", "0x1.d16ac40143ad5p-112"),
        ("0x1.818b70632a2a5p-2", "0x1.0ec9c1334c9c5p-118"),
        ("0x1.118f291044797p-2", "0x1.0ed0afcdb7d20p-118"),
        ("0x1.0a37cf95bd856p-2", "0x1.0ed0afcdb7d20p-118"),
    ),
    (1.5, "g"): (
        ("0x1.460d6ccca3677p-7", "0x1.036cf29de15d7p-137"),
        ("0x1.8663f793c46c7p-4", "0x1.ca06b0922a32ap-109"),
        ("0x1.9f323ecbf984cp-2", "0x1.ca07dc715aab0p-109"),
        ("0x1.48a11293d785cp-1", "0x1.5273acea3586ap-135"),
        ("0x1.534bd6879f103p-1", "0x1.e0cdd2144407ap-129"),
    ),
    (1.5, "gprime"): (
        ("0x1.faee41e6a7498p-1", "0x1.5a1618b9164fcp-131"),
        ("0x1.d1745d1745d17p-1", "0x1.3d45137a2e8d8p-131"),
        ("0x1.5555555555555p-1", "0x1.3fdd132dd4d05p-131"),
        ("0x1.0d79435e50d79p-1", "0x1.689210f9be377p-128"),
        ("0x1.07eae2f8151d0p-1", "0x1.e423f51904699p-134"),
    ),
    (1.9, "g"): (
        ("0x1.462f5db79216ap-7", "0x1.7d4507cf250c1p-125"),
        ("0x1.822515e2db7bcp-4", "0x1.e0eb6fa3c2ea9p-122"),
        ("0x1.938709be5719dp-2", "0x1.117ef8dbbac45p-118"),
        ("0x1.3d353aed2e07ep-1", "0x1.5284dbc0948aep-115"),
        ("0x1.47596c48db7e0p-1", "0x1.a72612b16f381p-112"),
    ),
    (1.9, "gprime"): (
        ("0x1.fa00525a65936p-1", "0x1.925a60fef1b10p-111"),
        ("0x1.c8461aa6f3326p-1", "0x1.92c1474339e14p-111"),
        ("0x1.46d776e33eb63p-1", "0x1.61b78ab8cb7a6p-114"),
        ("0x1.003f38a3741cfp-1", "0x1.f67d3631dc7e1p-108"),
        ("0x1.f5b8b94b5a2dcp-2", "0x1.925a60ff9dfbap-111"),
    ),
    (2.0, "g"): (
        ("0x1.460d6ccca3677p-7", "0x1.3104063f50d67p-128"),
        ("0x1.8663f793c46c7p-4", "0x1.dd0533ebd1562p-122"),
        ("0x1.9f323ecbf984cp-2", "0x1.dc9649bba977ap-122"),
        ("0x1.48a11293d785cp-1", "0x1.0f0f1388c3c78p-118"),
        ("0x1.534bd6879f103p-1", "0x1.52d2d86af4b96p-115"),
    ),
    (2.0, "gprime"): (
        ("0x1.faee41e6a7498p-1", "0x1.117ef8db5341ep-117"),
        ("0x1.d1745d1745d17p-1", "0x1.2c9325c5e6aeep-117"),
        ("0x1.5555555555555p-1", "0x1.29ddee14e13eap-117"),
        ("0x1.0d79435e50d79p-1", "0x1.a7878e85b1e7cp-111"),
        ("0x1.07eae2f8151d1p-1", "0x1.b142d180d50fcp-121"),
    ),
    (1.50000001, "g"): (
        ("0x1.633a413d9089dp-7", "0x1.527c31e6594dap-115"),
        ("0x1.7f1daa535da78p-4", "0x1.527c31ad8e062p-114"),
        ("0x1.68c29be53fdc8p-2", "0x1.527c33b2543cbp-115"),
        ("0x1.1160ffc8b4f9bp-1", "0x1.527d0f49345b2p-115"),
        ("0x1.196a6b09253b1p-1", "0x1.527d0f49b7324p-115"),
    ),
    (1.50000001, "gprime"): (
        ("0x1.0c81ba61b3441p+0", "0x1.3d5470ca98c47p-111"),
        ("0x1.a938bc6d51addp-1", "0x1.3d54790189435p-110"),
        ("0x1.0c6c963e4b877p-1", "0x1.fbbb972f075f3p-115"),
        ("0x1.968f16565df23p-2", "0x1.fbbb972698813p-115"),
        ("0x1.8d32f859a8896p-2", "0x1.fbc749da83f13p-115"),
    ),
    (0.5353553390593274, "g"): (
        ("0x1.c33c3986a2713p-5", "0x1.5a9bd8c7eb526p-125"),
        ("0x1.433b8e4634e39p-3", "0x1.29ddee1549eacp-118"),
        ("0x1.3433a658c9f8ap-2", "0x1.b142d1c9857a8p-122"),
        ("0x1.7d3bd6c77c54bp-2", "0x1.a787aa402dc0bp-112"),
        ("0x1.83138bcb483cap-2", "0x1.b1b1b8e205149p-122"),
    ),
    (0.5353553390593274, "gprime"): (
        ("0x1.53ed038c811d7p+1", "0x1.c506493046c67p-113"),
        ("0x1.596284e2dbf99p-1", "0x1.c98e074dafb09p-113"),
        ("0x1.cba939785b82ep-3", "0x1.cfe5ae7c095d2p-123"),
        ("0x1.29051646ea26fp-3", "0x1.76d4323ddf1a6p-126"),
        ("0x1.1f5bdf2708867p-3", "0x1.76d43275e88c9p-126"),
    ),
    (1.4142135623730951, "g"): (
        ("0x1.73b36c29e4119p-7", "0x1.0ec9c15ca425dp-118"),
        ("0x1.82921a9103ff4p-4", "0x1.527c317b035bep-115"),
        ("0x1.609c57aae741dp-2", "0x1.0ec9c15c2fd86p-118"),
        ("0x1.087526f010fe6p-1", "0x1.5284dbc0a2ef5p-115"),
        ("0x1.100ade66d1874p-1", "0x1.527d0f49b7324p-115"),
    ),
    (1.4142135623730951, "gprime"): (
        ("0x1.1572b7cee9ba9p+0", "0x1.deb1eeb8d74abp-115"),
        ("0x1.a3c5411b42fc8p-1", "0x1.deb1eeb0cf553p-115"),
        ("0x1.ff77dc83f219ep-2", "0x1.deb1eeb0cf553p-115"),
        ("0x1.7fcd0aa3f5b25p-2", "0x1.deb0d4510cca5p-115"),
        ("0x1.76c2c3c34f20ep-2", "0x1.deb0d451c5d3ap-115"),
    ),
    (1.5707963267948966, "g"): (
        ("0x1.514ee59f309f5p-7", "0x1.819deff4e57d0p-135"),
        ("0x1.6c8e5ef183603p-4", "0x1.56b7d0545c21bp-125"),
        ("0x1.56321ec66fa80p-2", "0x1.149d581301a2bp-128"),
        ("0x1.02dc32d7ae815p-1", "0x1.b034c17349917p-122"),
        ("0x1.0a6fbed6d81cbp-1", "0x1.b034c17349917p-122"),
    ),
    (1.5707963267948966, "gprime"): (
        ("0x1.feea81fa12dbep-1", "0x1.b28059c2d36a8p-128"),
        ("0x1.9451a7605aea2p-1", "0x1.53ca3a491ffe9p-121"),
        ("0x1.fb39dbd4585b8p-2", "0x1.0cdfdda035332p-123"),
        ("0x1.7f4acc69ee001p-2", "0x1.a8513bd9777eap-118"),
        ("0x1.766b295d53b04p-2", "0x1.a41dbc867cc3cp-117"),
    ),
}


def _outcome(alpha, pair, name, beta):
    if pair:
        tol = Tolerance()
        plan = series_module._plan(*alpha.as_integer_ratio(), *pair, RHO[alpha],
                                   name == "gprime", tol.abs_tol, tol.max_terms)
        rep = SeriesReport(*series_module._split(plan, beta))
    else:
        rep = SERIES[name](validate(alpha, RHO[alpha]), beta)
    return (rep.value.hex(), rep.terms_first_series, rep.terms_second_series,
            rep.tail_bound.hex(), rep.noise_bound.hex())


def test_split_pins_cover_every_case():
    assert set(RHO) == {alpha for alpha, _, _ in PINS}
    assert all(len(pins) == len(BETAS) for pins in PINS.values())
    assert set(ORACLE) == {(alpha, name) for alpha, _, name in PINS}


def test_split_pins_lie_within_their_bounds_of_the_oracle():
    for (alpha, _, name), pins in PINS.items():
        for beta, pin, (ref, err) in zip(BETAS, pins, ORACLE[alpha, name]):
            value, tail, noise = (float.fromhex(pin[i]) for i in (0, 3, 4))
            ref, err = float.fromhex(ref), float.fromhex(err)
            assert abs(value - ref) <= tail + noise - err - 0.5 * math.ulp(ref), (
                alpha, name, beta)


@pytest.mark.parametrize("warm", [False, True])
def test_split_values_bit_identical_to_their_pins(warm):
    series_module._plan.cache_clear()
    series_module._family.cache_clear()
    if warm:
        for alpha, pair, name in PINS:
            for beta in BETAS:
                _outcome(alpha, pair, name, beta)
    for (alpha, pair, name), pins in PINS.items():
        for beta, pin in zip(BETAS, pins):
            if not warm:
                series_module._plan.cache_clear()
                series_module._family.cache_clear()
            assert _outcome(alpha, pair, name, beta) == pin, (alpha, pair, name, beta)


if __name__ == "__main__":
    from oracles import g_mpmath, gprime_mpmath

    print("PINS = {")
    for alpha in RHO:
        for pair in (None, PAIRED[alpha]) if alpha in PAIRED else (None,):
            for name in SERIES:
                print(f'    ({alpha!r}, {pair!r}, "{name}"): (')
                for beta in BETAS:
                    value, first, second, tail, noise = _outcome(alpha, pair, name, beta)
                    print(f'        ("{value}", {first}, {second}, "{tail}", "{noise}"),')
                print("    ),")
    print("}")
    print("ORACLE = {")
    for alpha in RHO:
        for name, oracle in (("g", g_mpmath), ("gprime", gprime_mpmath)):
            print(f'    ({alpha!r}, "{name}"): (')
            for beta in BETAS:
                ref, err = oracle(alpha, RHO[alpha], beta)
                print(f'        ("{float(ref).hex()}", "{float(err).hex()}"),')
            print("    ),")
    print("}")
    sys.exit(0)
