"""The plan and the value of g and g' pinned in every beta region.

At three (alpha, rho), sqrt 2 with no Doney case, the Doney case 4/5 and
the rational 1/2; for g and g'; automatic and each forced method; at betas
below the band, at 0.95, 1.0 and 1.05, inside the band, in the sliver
[1.05, 1/0.95) that is planned in the band at 1/beta, at 1/0.95 itself
and reflected beyond it.  Each pin is the plan's steps as (method, reason,
runnable), or the type of the error the plan raises, and the result as
(value, bound) in float hex with its method and count, or the type of the
error raised.  They were recorded while the plan was still a generator
that looked up what it needed as it went, the series rows again when
the series began to stop at one contour cut, the g' rows at 4/5 when
the Doney closed form began to cover g', and the g' series values when g'
began to sum at the powers of beta of g and divide by beta once (their
bounds unchanged): each series and Doney value lies
within its bound of the 30-digit integral (``tests/oracles.g_mpmath`` or
``gprime_mpmath``), stored as float hex with its error estimate in
``ORACLE``.  Each case is checked cold, the plan cache cleared before the
call, and warm, after every case has filled it.  After an intended
change, print both tables from the current tree with

    PYTHONPATH=src python tests/test_plan_pins.py

and name every changed pin in CHANGES.md.
"""

import importlib
import itertools
import math
import sys

import pytest

from stablekappa import MethodChoice, g_any_beta, gprime_any_beta, validate

# the package re-exports the function kappa under the submodule's name
kappa_module = importlib.import_module("stablekappa.kappa")

SQRT2 = math.sqrt(2.0)
ALPHAS = ((SQRT2, 0.5), (0.8, 0.25), (0.5, 0.3))
BETAS = (0.3, 0.95, 0.97, 1.0, 1.03, 1.05, 1.051, 1 / 0.95, 1.06, 2.5)

# short name -> (method, reason, runnable) of one plan step
STEPS = {
    'doney no_case':
        ('doney', 'skipped: no (k, l) with rho + k = l/alpha', False),
    'series irrational':
        ('series', 'irrational alpha, paired where the generic sum refuses', True),
    'quadrature reference':
        ('quadrature', 'reference evaluator', True),
    'quadrature band':
        ('quadrature', '0.95 < beta < 1.05, where both series slow down', True),
    'series skip_band':
        ('series', 'skipped: 0.95 < beta < 1.05, where quadrature runs', False),
    'quadrature band reflected':
        ('quadrature', '0.95 < beta < 1.05, where both series slow down'
         '; at 1/beta, reflected', True),
    'series irrational reflected':
        ('series', 'irrational alpha, paired where the generic sum refuses'
         '; at 1/beta, reflected', True),
    'quadrature reference reflected':
        ('quadrature', 'reference evaluator; at 1/beta, reflected', True),
    'doney case (1, 1)':
        ('doney', 'Doney case (k, l) = (1, 1)', True),
    'series 4/5':
        ('series', 'rational alpha 4/5, split at its resonant terms', True),
    'doney skip_band':
        ('doney', 'skipped: 0.95 < beta < 1.05, where quadrature runs', False),
    'series 4/5 reflected':
        ('series', 'rational alpha 4/5, split at its resonant terms; at 1/beta, reflected', True),
    'doney case (1, 1) reflected':
        ('doney', 'Doney case (k, l) = (1, 1); at 1/beta, reflected', True),
    'series 1/2':
        ('series', 'rational alpha 1/2, split at its resonant terms', True),
    'series 1/2 reflected':
        ('series', 'rational alpha 1/2, split at its resonant terms; at 1/beta, reflected', True),
}
PINS = {
    (SQRT2, 0.5, False, 'auto'): (
        (('doney no_case', 'series irrational', 'quadrature reference'),
         ('0x1.dfed3906688c9p-3', '0x1.634851cc43b8cp-36', 'series', 32)),
        (('doney no_case', 'series irrational', 'quadrature reference'),
         ('0x1.11e928ce77d20p-1', '0x1.733b26b0b8a4cp-36', 'series', 623)),
        (('quadrature band', 'doney no_case', 'series skip_band'),
         ('0x1.159d6d92e135fp-1', '0x1.01b6fad6e147bp-36', 'quadrature', 255)),
        (('quadrature band', 'doney no_case', 'series skip_band'),
         ('0x1.1b1790c144988p-1', '0x1.1276c19000000p-36', 'quadrature', 240)),
        (('quadrature band', 'doney no_case', 'series skip_band'),
         ('0x1.207a2c7c415f5p-1', '0x1.0cb4cb634d0c7p-36', 'quadrature', 255)),
        (('quadrature band reflected', 'doney no_case', 'series skip_band'),
         ('0x1.2404977f1d26dp-1', '0x1.efd96be25dfc7p-37', 'quadrature', 255)),
        (('quadrature band reflected', 'doney no_case', 'series skip_band'),
         ('0x1.2431a6fe61f1cp-1', '0x1.eed94bbc20b97p-37', 'quadrature', 255)),
        (('quadrature band reflected', 'doney no_case', 'series skip_band'),
         ('0x1.247b1e8fd1f57p-1', '0x1.ed386b0c7a3f4p-37', 'quadrature', 255)),
        (('doney no_case', 'series irrational reflected', 'quadrature reference reflected'),
         ('0x1.25c6182e1c5ccp-1', '0x1.62aadd1726a52p-36', 'series', 553)),
        (('doney no_case', 'series irrational reflected', 'quadrature reference reflected'),
         ('0x1.e14599500d884p-1', '0x1.78a031de5e9cap-36', 'series', 39)),
    ),
    (SQRT2, 0.5, False, 'doney'): (
        ('MethodNotApplicableError',
         'MethodNotApplicableError'),
        ('MethodNotApplicableError',
         'MethodNotApplicableError'),
        (('quadrature band',),
         ('0x1.159d6d92e135fp-1', '0x1.01b6fad6e147bp-36', 'quadrature', 255)),
        (('quadrature band',),
         ('0x1.1b1790c144988p-1', '0x1.1276c19000000p-36', 'quadrature', 240)),
        (('quadrature band',),
         ('0x1.207a2c7c415f5p-1', '0x1.0cb4cb634d0c7p-36', 'quadrature', 255)),
        (('quadrature band reflected',),
         ('0x1.2404977f1d26dp-1', '0x1.efd96be25dfc7p-37', 'quadrature', 255)),
        (('quadrature band reflected',),
         ('0x1.2431a6fe61f1cp-1', '0x1.eed94bbc20b97p-37', 'quadrature', 255)),
        (('quadrature band reflected',),
         ('0x1.247b1e8fd1f57p-1', '0x1.ed386b0c7a3f4p-37', 'quadrature', 255)),
        ('MethodNotApplicableError',
         'MethodNotApplicableError'),
        ('MethodNotApplicableError',
         'MethodNotApplicableError'),
    ),
    (SQRT2, 0.5, False, 'series'): (
        (('series irrational',),
         ('0x1.dfed3906688c9p-3', '0x1.634851cc43b8cp-36', 'series', 32)),
        (('series irrational',),
         ('0x1.11e928ce77d20p-1', '0x1.733b26b0b8a4cp-36', 'series', 623)),
        (('quadrature band',),
         ('0x1.159d6d92e135fp-1', '0x1.01b6fad6e147bp-36', 'quadrature', 255)),
        (('quadrature band',),
         ('0x1.1b1790c144988p-1', '0x1.1276c19000000p-36', 'quadrature', 240)),
        (('quadrature band',),
         ('0x1.207a2c7c415f5p-1', '0x1.0cb4cb634d0c7p-36', 'quadrature', 255)),
        (('quadrature band reflected',),
         ('0x1.2404977f1d26dp-1', '0x1.efd96be25dfc7p-37', 'quadrature', 255)),
        (('quadrature band reflected',),
         ('0x1.2431a6fe61f1cp-1', '0x1.eed94bbc20b97p-37', 'quadrature', 255)),
        (('quadrature band reflected',),
         ('0x1.247b1e8fd1f57p-1', '0x1.ed386b0c7a3f4p-37', 'quadrature', 255)),
        (('series irrational reflected',),
         ('0x1.25c6182e1c5ccp-1', '0x1.62aadd1726a52p-36', 'series', 553)),
        (('series irrational reflected',),
         ('0x1.e14599500d884p-1', '0x1.78a031de5e9cap-36', 'series', 39)),
    ),
    (SQRT2, 0.5, False, 'quadrature'): (
        (('quadrature reference',),
         ('0x1.dfed39065c2c3p-3', '0x1.94c6e52533333p-34', 'quadrature', 195)),
        (('quadrature reference',),
         ('0x1.11e928ce6b596p-1', '0x1.ed2c192000000p-37', 'quadrature', 255)),
        (('quadrature band',),
         ('0x1.159d6d92e135fp-1', '0x1.01b6fad6e147bp-36', 'quadrature', 255)),
        (('quadrature band',),
         ('0x1.1b1790c144988p-1', '0x1.1276c19000000p-36', 'quadrature', 240)),
        (('quadrature band',),
         ('0x1.207a2c7c415f5p-1', '0x1.0cb4cb634d0c7p-36', 'quadrature', 255)),
        (('quadrature band reflected',),
         ('0x1.2404977f1d26dp-1', '0x1.efd96be25dfc7p-37', 'quadrature', 255)),
        (('quadrature band reflected',),
         ('0x1.2431a6fe61f1cp-1', '0x1.eed94bbc20b97p-37', 'quadrature', 255)),
        (('quadrature band reflected',),
         ('0x1.247b1e8fd1f57p-1', '0x1.ed386b0c7a3f4p-37', 'quadrature', 255)),
        (('quadrature reference reflected',),
         ('0x1.25c6182e0f1bfp-1', '0x1.e5f66e9860b84p-37', 'quadrature', 255)),
        (('quadrature reference reflected',),
         ('0x1.e1459950195c2p-1', '0x1.99745170b30e7p-34', 'quadrature', 195)),
    ),
    (SQRT2, 0.5, True, 'auto'): (
        (('doney no_case', 'series irrational', 'quadrature reference'),
         ('0x1.380bb5d40c588p-1', '0x1.7cb6f8e87f40bp-36', 'series', 37)),
        (('doney no_case', 'series irrational', 'quadrature reference'),
         ('0x1.7492afebaddcep-2', '0x1.71796af6f10bfp-36', 'series', 821)),
        (('quadrature band', 'doney no_case', 'series skip_band'),
         ('0x1.7047abcdababap-2', '0x1.1cc59e35c28f6p-37', 'quadrature', 165)),
        (('quadrature band', 'doney no_case', 'series skip_band'),
         ('0x1.6a09e667f3bcep-2', '0x1.4bdcd23000000p-37', 'quadrature', 150)),
        (('quadrature band', 'doney no_case', 'series skip_band'),
         ('0x1.6405e35476186p-2', '0x1.4055f4fe9a18ep-37', 'quadrature', 165)),
        (('quadrature band reflected', 'doney no_case', 'series skip_band'),
         ('0x1.6021ac13bcdb9p-2', '0x1.d4c5e117d03c6p-38', 'quadrature', 165)),
        (('quadrature band reflected', 'doney no_case', 'series skip_band'),
         ('0x1.5ff07afabbe34p-2', '0x1.d269e39cfbe63p-38', 'quadrature', 165)),
        (('quadrature band reflected', 'doney no_case', 'series skip_band'),
         ('0x1.5fa05848940d6p-2', '0x1.cf0ab9ad9e930p-38', 'quadrature', 165)),
        (('doney no_case', 'series irrational reflected', 'quadrature reference reflected'),
         ('0x1.5e385b734e07bp-2', '0x1.535ef7a35206ep-36', 'series', 722)),
        (('doney no_case', 'series irrational reflected', 'quadrature reference reflected'),
         ('0x1.8fbe30cd5c174p-3', '0x1.fbb631e82097bp-40', 'series', 49)),
    ),
    (SQRT2, 0.5, True, 'doney'): (
        ('MethodNotApplicableError',
         'MethodNotApplicableError'),
        ('MethodNotApplicableError',
         'MethodNotApplicableError'),
        (('quadrature band',),
         ('0x1.7047abcdababap-2', '0x1.1cc59e35c28f6p-37', 'quadrature', 165)),
        (('quadrature band',),
         ('0x1.6a09e667f3bcep-2', '0x1.4bdcd23000000p-37', 'quadrature', 150)),
        (('quadrature band',),
         ('0x1.6405e35476186p-2', '0x1.4055f4fe9a18ep-37', 'quadrature', 165)),
        (('quadrature band reflected',),
         ('0x1.6021ac13bcdb9p-2', '0x1.d4c5e117d03c6p-38', 'quadrature', 165)),
        (('quadrature band reflected',),
         ('0x1.5ff07afabbe34p-2', '0x1.d269e39cfbe63p-38', 'quadrature', 165)),
        (('quadrature band reflected',),
         ('0x1.5fa05848940d6p-2', '0x1.cf0ab9ad9e930p-38', 'quadrature', 165)),
        ('MethodNotApplicableError',
         'MethodNotApplicableError'),
        ('MethodNotApplicableError',
         'MethodNotApplicableError'),
    ),
    (SQRT2, 0.5, True, 'series'): (
        (('series irrational',),
         ('0x1.380bb5d40c588p-1', '0x1.7cb6f8e87f40bp-36', 'series', 37)),
        (('series irrational',),
         ('0x1.7492afebaddcep-2', '0x1.71796af6f10bfp-36', 'series', 821)),
        (('quadrature band',),
         ('0x1.7047abcdababap-2', '0x1.1cc59e35c28f6p-37', 'quadrature', 165)),
        (('quadrature band',),
         ('0x1.6a09e667f3bcep-2', '0x1.4bdcd23000000p-37', 'quadrature', 150)),
        (('quadrature band',),
         ('0x1.6405e35476186p-2', '0x1.4055f4fe9a18ep-37', 'quadrature', 165)),
        (('quadrature band reflected',),
         ('0x1.6021ac13bcdb9p-2', '0x1.d4c5e117d03c6p-38', 'quadrature', 165)),
        (('quadrature band reflected',),
         ('0x1.5ff07afabbe34p-2', '0x1.d269e39cfbe63p-38', 'quadrature', 165)),
        (('quadrature band reflected',),
         ('0x1.5fa05848940d6p-2', '0x1.cf0ab9ad9e930p-38', 'quadrature', 165)),
        (('series irrational reflected',),
         ('0x1.5e385b734e07bp-2', '0x1.535ef7a35206ep-36', 'series', 722)),
        (('series irrational reflected',),
         ('0x1.8fbe30cd5c174p-3', '0x1.fbb631e82097bp-40', 'series', 49)),
    ),
    (SQRT2, 0.5, True, 'quadrature'): (
        (('quadrature reference',),
         ('0x1.380bb5d411d20p-1', '0x1.d859db1333333p-38', 'quadrature', 195)),
        (('quadrature reference',),
         ('0x1.7492afeb9465ep-2', '0x1.007ca9a99999ap-37', 'quadrature', 165)),
        (('quadrature band',),
         ('0x1.7047abcdababap-2', '0x1.1cc59e35c28f6p-37', 'quadrature', 165)),
        (('quadrature band',),
         ('0x1.6a09e667f3bcep-2', '0x1.4bdcd23000000p-37', 'quadrature', 150)),
        (('quadrature band',),
         ('0x1.6405e35476186p-2', '0x1.4055f4fe9a18ep-37', 'quadrature', 165)),
        (('quadrature band reflected',),
         ('0x1.6021ac13bcdb9p-2', '0x1.d4c5e117d03c6p-38', 'quadrature', 165)),
        (('quadrature band reflected',),
         ('0x1.5ff07afabbe34p-2', '0x1.d269e39cfbe63p-38', 'quadrature', 165)),
        (('quadrature band reflected',),
         ('0x1.5fa05848940d6p-2', '0x1.cf0ab9ad9e930p-38', 'quadrature', 165)),
        (('quadrature reference reflected',),
         ('0x1.5e385b736512fp-2', '0x1.c03748eb33084p-38', 'quadrature', 165)),
        (('quadrature reference reflected',),
         ('0x1.8fbe30cd5f7dap-3', '0x1.2abb26a5575d5p-38', 'quadrature', 165)),
    ),
    (0.8, 0.25, False, 'auto'): (
        (('doney case (1, 1)', 'series 4/5', 'quadrature reference'),
         ('0x1.fc31aa21dd108p-4', '0x1.1fc31aa21dd10p-48', 'doney', 2)),
        (('doney case (1, 1)', 'series 4/5', 'quadrature reference'),
         ('0x1.be92ee3f84e30p-3', '0x1.37d25dc7f09c6p-48', 'doney', 2)),
        (('quadrature band', 'doney skip_band', 'series 4/5'),
         ('0x1.c2c9d7b92a4f2p-3', '0x1.39f0bf7eb851fp-34', 'quadrature', 225)),
        (('quadrature band', 'doney skip_band', 'series skip_band'),
         ('0x1.c8ff7c79a91fcp-3', '0x1.439bb67c00000p-34', 'quadrature', 210)),
        (('quadrature band', 'doney skip_band', 'series skip_band'),
         ('0x1.cf141704bacf3p-3', '0x1.42f519eae9a19p-34', 'quadrature', 225)),
        (('quadrature band reflected', 'doney skip_band', 'series 4/5 reflected'),
         ('0x1.d310375b70559p-3', '0x1.3443d8f206eb7p-34', 'quadrature', 225)),
        (('quadrature band reflected', 'doney skip_band', 'series 4/5 reflected'),
         ('0x1.d342dcbcde21ap-3', '0x1.33f90e1533e3ap-34', 'quadrature', 225)),
        (('quadrature band reflected', 'doney skip_band', 'series 4/5 reflected'),
         ('0x1.d3956c228e129p-3', '0x1.337f4c32ad845p-34', 'quadrature', 225)),
        (('doney case (1, 1) reflected', 'series 4/5 reflected', 'quadrature reference reflected'),
         ('0x1.d50927c6e0105p-3', '0x1.864db0341efc4p-48', 'doney', 2)),
        (('doney case (1, 1) reflected', 'series 4/5 reflected', 'quadrature reference reflected'),
         ('0x1.4f13e3f40938ap-2', '0x1.79cc35badb142p-48', 'doney', 2)),
    ),
    (0.8, 0.25, False, 'doney'): (
        (('doney case (1, 1)',),
         ('0x1.fc31aa21dd108p-4', '0x1.1fc31aa21dd10p-48', 'doney', 2)),
        (('doney case (1, 1)',),
         ('0x1.be92ee3f84e30p-3', '0x1.37d25dc7f09c6p-48', 'doney', 2)),
        (('quadrature band',),
         ('0x1.c2c9d7b92a4f2p-3', '0x1.39f0bf7eb851fp-34', 'quadrature', 225)),
        (('quadrature band',),
         ('0x1.c8ff7c79a91fcp-3', '0x1.439bb67c00000p-34', 'quadrature', 210)),
        (('quadrature band',),
         ('0x1.cf141704bacf3p-3', '0x1.42f519eae9a19p-34', 'quadrature', 225)),
        (('quadrature band reflected',),
         ('0x1.d310375b70559p-3', '0x1.3443d8f206eb7p-34', 'quadrature', 225)),
        (('quadrature band reflected',),
         ('0x1.d342dcbcde21ap-3', '0x1.33f90e1533e3ap-34', 'quadrature', 225)),
        (('quadrature band reflected',),
         ('0x1.d3956c228e129p-3', '0x1.337f4c32ad845p-34', 'quadrature', 225)),
        (('doney case (1, 1) reflected',),
         ('0x1.d50927c6e0105p-3', '0x1.864db0341efc4p-48', 'doney', 2)),
        (('doney case (1, 1) reflected',),
         ('0x1.4f13e3f40938ap-2', '0x1.79cc35badb142p-48', 'doney', 2)),
    ),
    (0.8, 0.25, False, 'series'): (
        (('series 4/5',),
         ('0x1.fc31aa2209e34p-4', '0x1.4fb32849636a2p-36', 'series', 37)),
        (('series 4/5',),
         ('0x1.be92ee3fb253ap-3', '0x1.3cace4411821bp-35', 'series', 695)),
        (('quadrature band',),
         ('0x1.c2c9d7b92a4f2p-3', '0x1.39f0bf7eb851fp-34', 'quadrature', 225)),
        (('quadrature band',),
         ('0x1.c8ff7c79a91fcp-3', '0x1.439bb67c00000p-34', 'quadrature', 210)),
        (('quadrature band',),
         ('0x1.cf141704bacf3p-3', '0x1.42f519eae9a19p-34', 'quadrature', 225)),
        (('quadrature band reflected',),
         ('0x1.d310375b70559p-3', '0x1.3443d8f206eb7p-34', 'quadrature', 225)),
        (('quadrature band reflected',),
         ('0x1.d342dcbcde21ap-3', '0x1.33f90e1533e3ap-34', 'quadrature', 225)),
        (('quadrature band reflected',),
         ('0x1.d3956c228e129p-3', '0x1.337f4c32ad845p-34', 'quadrature', 225)),
        (('series 4/5 reflected',),
         ('0x1.d50927c70ec9dp-3', '0x1.4601b3c863372p-35', 'series', 615)),
        (('series 4/5 reflected',),
         ('0x1.4f13e3f40fd30p-2', '0x1.cb3beede4ee57p-37', 'series', 47)),
    ),
    (0.8, 0.25, False, 'quadrature'): (
        (('quadrature reference',),
         ('0x1.fc31aa21dcc22p-4', '0x1.520fa71eccccdp-34', 'quadrature', 195)),
        (('quadrature reference',),
         ('0x1.be92ee3f8464ep-3', '0x1.337e10c000000p-34', 'quadrature', 225)),
        (('quadrature band',),
         ('0x1.c2c9d7b92a4f2p-3', '0x1.39f0bf7eb851fp-34', 'quadrature', 225)),
        (('quadrature band',),
         ('0x1.c8ff7c79a91fcp-3', '0x1.439bb67c00000p-34', 'quadrature', 210)),
        (('quadrature band',),
         ('0x1.cf141704bacf3p-3', '0x1.42f519eae9a19p-34', 'quadrature', 225)),
        (('quadrature band reflected',),
         ('0x1.d310375b70559p-3', '0x1.3443d8f206eb7p-34', 'quadrature', 225)),
        (('quadrature band reflected',),
         ('0x1.d342dcbcde21ap-3', '0x1.33f90e1533e3ap-34', 'quadrature', 225)),
        (('quadrature band reflected',),
         ('0x1.d3956c228e129p-3', '0x1.337f4c32ad845p-34', 'quadrature', 225)),
        (('quadrature reference reflected',),
         ('0x1.d50927c6df973p-3', '0x1.315e2ed524f8ep-34', 'quadrature', 225)),
        (('quadrature reference reflected',),
         ('0x1.4f13e3f4091e7p-2', '0x1.11fa3b7ebec6dp-35', 'quadrature', 195)),
    ),
    (0.8, 0.25, True, 'auto'): (
        (('doney case (1, 1)', 'series 4/5', 'quadrature reference'),
         ('0x1.bd752d8fe813bp-3', '0x1.a565811fb3ddfp-47', 'doney', 2)),
        (('doney case (1, 1)', 'series 4/5', 'quadrature reference'),
         ('0x1.a8861275c457ap-4', '0x1.41a8861275c41p-43', 'doney', 2)),
        (('quadrature band', 'doney skip_band', 'series 4/5'),
         ('0x1.a268d889eb677p-4', '0x1.676ec7f000000p-35', 'quadrature', 135)),
        (('quadrature band', 'doney skip_band', 'series skip_band'),
         ('0x1.999999999999ap-4', '0x1.f7cd75e000000p-35', 'quadrature', 120)),
        (('quadrature band', 'doney skip_band', 'series skip_band'),
         ('0x1.91323afb8e18dp-4', '0x1.e087409ee9a19p-35', 'quadrature', 135)),
        (('quadrature band reflected', 'doney skip_band', 'series 4/5 reflected'),
         ('0x1.8bce017661570p-4', '0x1.ffb1057c9c177p-36', 'quadrature', 135)),
        (('quadrature band reflected', 'doney skip_band', 'series 4/5 reflected'),
         ('0x1.8b8a1536f03bep-4', '0x1.f7cbe7cbe7a27p-36', 'quadrature', 135)),
        (('quadrature band reflected', 'doney skip_band', 'series 4/5 reflected'),
         ('0x1.8b1b7adc1dc48p-4', '0x1.eb10e39cce54cp-36', 'quadrature', 135)),
        (('doney case (1, 1) reflected', 'series 4/5 reflected', 'quadrature reference reflected'),
         ('0x1.892b54d59be45p-4', '0x1.fe7ea546e92ccp-44', 'doney', 2)),
        (('doney case (1, 1) reflected', 'series 4/5 reflected', 'quadrature reference reflected'),
         ('0x1.9fbd0684854a3p-5', '0x1.b583e9794aceep-49', 'doney', 2)),
    ),
    (0.8, 0.25, True, 'doney'): (
        (('doney case (1, 1)',),
         ('0x1.bd752d8fe813bp-3', '0x1.a565811fb3ddfp-47', 'doney', 2)),
        (('doney case (1, 1)',),
         ('0x1.a8861275c457ap-4', '0x1.41a8861275c41p-43', 'doney', 2)),
        (('quadrature band',),
         ('0x1.a268d889eb677p-4', '0x1.676ec7f000000p-35', 'quadrature', 135)),
        (('quadrature band',),
         ('0x1.999999999999ap-4', '0x1.f7cd75e000000p-35', 'quadrature', 120)),
        (('quadrature band',),
         ('0x1.91323afb8e18dp-4', '0x1.e087409ee9a19p-35', 'quadrature', 135)),
        (('quadrature band reflected',),
         ('0x1.8bce017661570p-4', '0x1.ffb1057c9c177p-36', 'quadrature', 135)),
        (('quadrature band reflected',),
         ('0x1.8b8a1536f03bep-4', '0x1.f7cbe7cbe7a27p-36', 'quadrature', 135)),
        (('quadrature band reflected',),
         ('0x1.8b1b7adc1dc48p-4', '0x1.eb10e39cce54cp-36', 'quadrature', 135)),
        (('doney case (1, 1) reflected',),
         ('0x1.892b54d59be45p-4', '0x1.fe7ea546e92ccp-44', 'doney', 2)),
        (('doney case (1, 1) reflected',),
         ('0x1.9fbd0684854a3p-5', '0x1.b583e9794aceep-49', 'doney', 2)),
    ),
    (0.8, 0.25, True, 'series'): (
        (('series 4/5',),
         ('0x1.bd752d8faad4dp-3', '0x1.051f21a3d4d67p-35', 'series', 42)),
        (('series 4/5',),
         ('0x1.a88612761abfap-4', '0x1.2e0eec1035955p-35', 'series', 927)),
        (('quadrature band',),
         ('0x1.a268d889eb677p-4', '0x1.676ec7f000000p-35', 'quadrature', 135)),
        (('quadrature band',),
         ('0x1.999999999999ap-4', '0x1.f7cd75e000000p-35', 'quadrature', 120)),
        (('quadrature band',),
         ('0x1.91323afb8e18dp-4', '0x1.e087409ee9a19p-35', 'quadrature', 135)),
        (('quadrature band reflected',),
         ('0x1.8bce017661570p-4', '0x1.ffb1057c9c177p-36', 'quadrature', 135)),
        (('quadrature band reflected',),
         ('0x1.8b8a1536f03bep-4', '0x1.f7cbe7cbe7a27p-36', 'quadrature', 135)),
        (('quadrature band reflected',),
         ('0x1.8b1b7adc1dc48p-4', '0x1.eb10e39cce54cp-36', 'quadrature', 135)),
        (('series 4/5 reflected',),
         ('0x1.892b54d54bbc0p-4', '0x1.16e47fba49bdap-35', 'series', 815)),
        (('series 4/5 reflected',),
         ('0x1.9fbd0684786d1p-5', '0x1.ba2a23a58a7f0p-39', 'series', 55)),
    ),
    (0.8, 0.25, True, 'quadrature'): (
        (('quadrature reference',),
         ('0x1.bd752d8fe8145p-3', '0x1.9c418c6666666p-39', 'quadrature', 165)),
        (('quadrature reference',),
         ('0x1.a8861275c411dp-4', '0x1.100c97899999ap-35', 'quadrature', 135)),
        (('quadrature band',),
         ('0x1.a268d889eb677p-4', '0x1.676ec7f000000p-35', 'quadrature', 135)),
        (('quadrature band',),
         ('0x1.999999999999ap-4', '0x1.f7cd75e000000p-35', 'quadrature', 120)),
        (('quadrature band',),
         ('0x1.91323afb8e18dp-4', '0x1.e087409ee9a19p-35', 'quadrature', 135)),
        (('quadrature band reflected',),
         ('0x1.8bce017661570p-4', '0x1.ffb1057c9c177p-36', 'quadrature', 135)),
        (('quadrature band reflected',),
         ('0x1.8b8a1536f03bep-4', '0x1.f7cbe7cbe7a27p-36', 'quadrature', 135)),
        (('quadrature band reflected',),
         ('0x1.8b1b7adc1dc48p-4', '0x1.eb10e39cce54cp-36', 'quadrature', 135)),
        (('quadrature reference reflected',),
         ('0x1.892b54d59bab8p-4', '0x1.b3d8914422667p-36', 'quadrature', 135)),
        (('quadrature reference reflected',),
         ('0x1.9fbd0684854a9p-5', '0x1.6beb7d6ae2c64p-41', 'quadrature', 135)),
    ),
    (0.5, 0.3, False, 'auto'): (
        (('doney no_case', 'series 1/2', 'quadrature reference'),
         ('0x1.3ca998eb81d95p-3', '0x1.4504fa608bd5fp-35', 'series', 34)),
        (('doney no_case', 'series 1/2', 'quadrature reference'),
         ('0x1.d5d0bd4703f6cp-3', '0x1.47ed8874000f3p-35', 'series', 692)),
        (('quadrature band', 'doney no_case', 'series 1/2'),
         ('0x1.d8fcb0e8d6c3ep-3', '0x1.be205a1eb851fp-35', 'quadrature', 225)),
        (('quadrature band', 'doney no_case', 'series skip_band'),
         ('0x1.dda66e7140fdep-3', '0x1.cbca0d5800000p-35', 'quadrature', 210)),
        (('quadrature band', 'doney no_case', 'series skip_band'),
         ('0x1.e23476dcbfc29p-3', '0x1.cabea8fdd3432p-35', 'quadrature', 225)),
        (('quadrature band reflected', 'doney no_case', 'series 1/2 reflected'),
         ('0x1.e52f1c516b0c1p-3', '0x1.b61b99b48a209p-35', 'quadrature', 225)),
        (('quadrature band reflected', 'doney no_case', 'series 1/2 reflected'),
         ('0x1.e554f15652bfdp-3', '0x1.b5b1cec6eced9p-35', 'quadrature', 225)),
        (('quadrature band reflected', 'doney no_case', 'series 1/2 reflected'),
         ('0x1.e5929bb123044p-3', '0x1.b505aebfda1f8p-35', 'quadrature', 225)),
        (('doney no_case', 'series 1/2 reflected', 'quadrature reference reflected'),
         ('0x1.e6a82a8622152p-3', '0x1.4060f92640dcep-35', 'series', 614)),
        (('doney no_case', 'series 1/2 reflected', 'quadrature reference reflected'),
         ('0x1.3c291d4068a6bp-2', '0x1.c8586b7dbf057p-36', 'series', 45)),
    ),
    (0.5, 0.3, False, 'doney'): (
        ('MethodNotApplicableError',
         'MethodNotApplicableError'),
        ('MethodNotApplicableError',
         'MethodNotApplicableError'),
        (('quadrature band',),
         ('0x1.d8fcb0e8d6c3ep-3', '0x1.be205a1eb851fp-35', 'quadrature', 225)),
        (('quadrature band',),
         ('0x1.dda66e7140fdep-3', '0x1.cbca0d5800000p-35', 'quadrature', 210)),
        (('quadrature band',),
         ('0x1.e23476dcbfc29p-3', '0x1.cabea8fdd3432p-35', 'quadrature', 225)),
        (('quadrature band reflected',),
         ('0x1.e52f1c516b0c1p-3', '0x1.b61b99b48a209p-35', 'quadrature', 225)),
        (('quadrature band reflected',),
         ('0x1.e554f15652bfdp-3', '0x1.b5b1cec6eced9p-35', 'quadrature', 225)),
        (('quadrature band reflected',),
         ('0x1.e5929bb123044p-3', '0x1.b505aebfda1f8p-35', 'quadrature', 225)),
        ('MethodNotApplicableError',
         'MethodNotApplicableError'),
        ('MethodNotApplicableError',
         'MethodNotApplicableError'),
    ),
    (0.5, 0.3, False, 'series'): (
        (('series 1/2',),
         ('0x1.3ca998eb81d95p-3', '0x1.4504fa608bd5fp-35', 'series', 34)),
        (('series 1/2',),
         ('0x1.d5d0bd4703f6cp-3', '0x1.47ed8874000f3p-35', 'series', 692)),
        (('quadrature band',),
         ('0x1.d8fcb0e8d6c3ep-3', '0x1.be205a1eb851fp-35', 'quadrature', 225)),
        (('quadrature band',),
         ('0x1.dda66e7140fdep-3', '0x1.cbca0d5800000p-35', 'quadrature', 210)),
        (('quadrature band',),
         ('0x1.e23476dcbfc29p-3', '0x1.cabea8fdd3432p-35', 'quadrature', 225)),
        (('quadrature band reflected',),
         ('0x1.e52f1c516b0c1p-3', '0x1.b61b99b48a209p-35', 'quadrature', 225)),
        (('quadrature band reflected',),
         ('0x1.e554f15652bfdp-3', '0x1.b5b1cec6eced9p-35', 'quadrature', 225)),
        (('quadrature band reflected',),
         ('0x1.e5929bb123044p-3', '0x1.b505aebfda1f8p-35', 'quadrature', 225)),
        (('series 1/2 reflected',),
         ('0x1.e6a82a8622152p-3', '0x1.4060f92640dcep-35', 'series', 614)),
        (('series 1/2 reflected',),
         ('0x1.3c291d4068a6bp-2', '0x1.c8586b7dbf057p-36', 'series', 45)),
    ),
    (0.5, 0.3, False, 'quadrature'): (
        (('quadrature reference',),
         ('0x1.3ca998ebc4ce6p-3', '0x1.226530b99999ap-36', 'quadrature', 225)),
        (('quadrature reference',),
         ('0x1.d5d0bd46dbc1ep-3', '0x1.b50352e000000p-35', 'quadrature', 225)),
        (('quadrature band',),
         ('0x1.d8fcb0e8d6c3ep-3', '0x1.be205a1eb851fp-35', 'quadrature', 225)),
        (('quadrature band',),
         ('0x1.dda66e7140fdep-3', '0x1.cbca0d5800000p-35', 'quadrature', 210)),
        (('quadrature band',),
         ('0x1.e23476dcbfc29p-3', '0x1.cabea8fdd3432p-35', 'quadrature', 225)),
        (('quadrature band reflected',),
         ('0x1.e52f1c516b0c1p-3', '0x1.b61b99b48a209p-35', 'quadrature', 225)),
        (('quadrature band reflected',),
         ('0x1.e554f15652bfdp-3', '0x1.b5b1cec6eced9p-35', 'quadrature', 225)),
        (('quadrature band reflected',),
         ('0x1.e5929bb123044p-3', '0x1.b505aebfda1f8p-35', 'quadrature', 225)),
        (('quadrature reference reflected',),
         ('0x1.e6a82a85db9bdp-3', '0x1.b2032d4df74f5p-35', 'quadrature', 225)),
        (('quadrature reference reflected',),
         ('0x1.3c291d404f69fp-2', '0x1.c372c7bab6d9fp-36', 'quadrature', 195)),
    ),
    (0.5, 0.3, True, 'auto'): (
        (('doney no_case', 'series 1/2', 'quadrature reference'),
         ('0x1.7ccde6e64c1b2p-3', '0x1.1461bce756d2ap-35', 'series', 41)),
        (('doney no_case', 'series 1/2', 'quadrature reference'),
         ('0x1.3fc37acdc1397p-4', '0x1.47e3ef6ec64a1p-35', 'series', 922)),
        (('quadrature band', 'doney no_case', 'series 1/2'),
         ('0x1.3a9abf3a84955p-4', '0x1.efa3922f5c28fp-35', 'quadrature', 135)),
        (('quadrature band', 'doney no_case', 'series skip_band'),
         ('0x1.3333333333334p-4', '0x1.bd68f40000000p-35', 'quadrature', 120)),
        (('quadrature band', 'doney no_case', 'series skip_band'),
         ('0x1.2c2b21c6f2343p-4', '0x1.b686cd8000000p-35', 'quadrature', 135)),
        (('quadrature band reflected', 'doney no_case', 'series 1/2 reflected'),
         ('0x1.27ac7d690fd0ap-4', '0x1.d1f1cc50c13d6p-35', 'quadrature', 135)),
        (('quadrature band reflected', 'doney no_case', 'series 1/2 reflected'),
         ('0x1.2773f3315042cp-4', '0x1.d1b36753e825fp-35', 'quadrature', 135)),
        (('quadrature band reflected', 'doney no_case', 'series 1/2 reflected'),
         ('0x1.2717e64af9e74p-4', '0x1.d142994244778p-35', 'quadrature', 135)),
        (('doney no_case', 'series 1/2 reflected', 'quadrature reference reflected'),
         ('0x1.257b3c1ad5be2p-4', '0x1.2227723ecb6cap-35', 'series', 812)),
        (('doney no_case', 'series 1/2 reflected', 'quadrature reference reflected'),
         ('0x1.261bc322ca174p-5', '0x1.0d00e9b8f0036p-38', 'series', 54)),
    ),
    (0.5, 0.3, True, 'doney'): (
        ('MethodNotApplicableError',
         'MethodNotApplicableError'),
        ('MethodNotApplicableError',
         'MethodNotApplicableError'),
        (('quadrature band',),
         ('0x1.3a9abf3a84955p-4', '0x1.efa3922f5c28fp-35', 'quadrature', 135)),
        (('quadrature band',),
         ('0x1.3333333333334p-4', '0x1.bd68f40000000p-35', 'quadrature', 120)),
        (('quadrature band',),
         ('0x1.2c2b21c6f2343p-4', '0x1.b686cd8000000p-35', 'quadrature', 135)),
        (('quadrature band reflected',),
         ('0x1.27ac7d690fd0ap-4', '0x1.d1f1cc50c13d6p-35', 'quadrature', 135)),
        (('quadrature band reflected',),
         ('0x1.2773f3315042cp-4', '0x1.d1b36753e825fp-35', 'quadrature', 135)),
        (('quadrature band reflected',),
         ('0x1.2717e64af9e74p-4', '0x1.d142994244778p-35', 'quadrature', 135)),
        ('MethodNotApplicableError',
         'MethodNotApplicableError'),
        ('MethodNotApplicableError',
         'MethodNotApplicableError'),
    ),
    (0.5, 0.3, True, 'series'): (
        (('series 1/2',),
         ('0x1.7ccde6e64c1b2p-3', '0x1.1461bce756d2ap-35', 'series', 41)),
        (('series 1/2',),
         ('0x1.3fc37acdc1397p-4', '0x1.47e3ef6ec64a1p-35', 'series', 922)),
        (('quadrature band',),
         ('0x1.3a9abf3a84955p-4', '0x1.efa3922f5c28fp-35', 'quadrature', 135)),
        (('quadrature band',),
         ('0x1.3333333333334p-4', '0x1.bd68f40000000p-35', 'quadrature', 120)),
        (('quadrature band',),
         ('0x1.2c2b21c6f2343p-4', '0x1.b686cd8000000p-35', 'quadrature', 135)),
        (('quadrature band reflected',),
         ('0x1.27ac7d690fd0ap-4', '0x1.d1f1cc50c13d6p-35', 'quadrature', 135)),
        (('quadrature band reflected',),
         ('0x1.2773f3315042cp-4', '0x1.d1b36753e825fp-35', 'quadrature', 135)),
        (('quadrature band reflected',),
         ('0x1.2717e64af9e74p-4', '0x1.d142994244778p-35', 'quadrature', 135)),
        (('series 1/2 reflected',),
         ('0x1.257b3c1ad5be2p-4', '0x1.2227723ecb6cap-35', 'series', 812)),
        (('series 1/2 reflected',),
         ('0x1.261bc322ca174p-5', '0x1.0d00e9b8f0036p-38', 'series', 54)),
    ),
    (0.5, 0.3, True, 'quadrature'): (
        (('quadrature reference',),
         ('0x1.7ccde6e60606dp-3', '0x1.cf82fe6666667p-40', 'quadrature', 165)),
        (('quadrature reference',),
         ('0x1.3fc37accd5d32p-4', '0x1.01c1d87000000p-34', 'quadrature', 135)),
        (('quadrature band',),
         ('0x1.3a9abf3a84955p-4', '0x1.efa3922f5c28fp-35', 'quadrature', 135)),
        (('quadrature band',),
         ('0x1.3333333333334p-4', '0x1.bd68f40000000p-35', 'quadrature', 120)),
        (('quadrature band',),
         ('0x1.2c2b21c6f2343p-4', '0x1.b686cd8000000p-35', 'quadrature', 135)),
        (('quadrature band reflected',),
         ('0x1.27ac7d690fd0ap-4', '0x1.d1f1cc50c13d6p-35', 'quadrature', 135)),
        (('quadrature band reflected',),
         ('0x1.2773f3315042cp-4', '0x1.d1b36753e825fp-35', 'quadrature', 135)),
        (('quadrature band reflected',),
         ('0x1.2717e64af9e74p-4', '0x1.d142994244778p-35', 'quadrature', 135)),
        (('quadrature reference reflected',),
         ('0x1.257b3c1b1c391p-4', '0x1.cea389d26682bp-35', 'quadrature', 135)),
        (('quadrature reference reflected',),
         ('0x1.261bc322e678ep-5', '0x1.17b8bb5226045p-40', 'quadrature', 135)),
    ),
}


# (value, error estimate) of the 30-digit integral at each (alpha, rho,
# derivative, beta) of a series row
ORACLE = {
    (0.5, 0.3, False, 0.3): ("0x1.3ca998ebc4ea5p-3", "0x1.6f9524af22a8bp-142"),
    (0.5, 0.3, False, 0.95): ("0x1.d5d0bd46dc1a6p-3", "0x1.220382599eb70p-135"),
    (0.5, 0.3, False, 1.06): ("0x1.e6a82a85dbf3bp-3", "0x1.c0b4664e80af3p-129"),
    (0.5, 0.3, False, 2.5): ("0x1.3c291d404f7c9p-2", "0x1.abcb125403546p-162"),
    (0.5, 0.3, True, 0.3): ("0x1.7ccde6e60606dp-3", "0x1.6fe8fa6a70d6dp-143"),
    (0.5, 0.3, True, 0.95): ("0x1.3fc37accd5d32p-4", "0x1.6f8ac8cca92cdp-142"),
    (0.5, 0.3, True, 1.06): ("0x1.257b3c1b1c391p-4", "0x1.c0aa1000dbcbep-130"),
    (0.5, 0.3, True, 2.5): ("0x1.261bc322e678ep-5", "0x1.abe016c16d012p-110"),
    (0.8, 0.25, False, 0.3): ("0x1.fc31aa21dd107p-4", "0x1.09d2d6f7a64a5p-155"),
    (0.8, 0.25, False, 0.95): ("0x1.be92ee3f84e0bp-3", "0x1.f5f19127483fap-136"),
    (0.8, 0.25, False, 1.06): ("0x1.d50927c6e0124p-3", "0x1.918efa9864d6ep-139"),
    (0.8, 0.25, False, 2.5): ("0x1.4f13e3f409388p-2", "0x1.75fa0d5cf7f2fp-109"),
    (0.8, 0.25, True, 0.3): ("0x1.bd752d8fe8146p-3", "0x1.09cd61fd71198p-152"),
    (0.8, 0.25, True, 0.95): ("0x1.a8861275c411ep-4", "0x1.918e0db85a4e2p-136"),
    (0.8, 0.25, True, 1.06): ("0x1.892b54d59bab7p-4", "0x1.f5f1738b5a874p-133"),
    (0.8, 0.25, True, 2.5): ("0x1.9fbd0684854a9p-5", "0x1.2b2e71172cc26p-109"),
    (1.4142135623730951, 0.5, False, 0.3): ("0x1.dfed39065c8dep-3", "0x1.527c317b035c4p-115"),
    (1.4142135623730951, 0.5, False, 0.95): ("0x1.11e928ce6b5e3p-1", "0x1.5284dbc125c67p-115"),
    (1.4142135623730951, 0.5, False, 1.06): ("0x1.25c6182e0f20cp-1", "0x1.117ef908b4b98p-118"),
    (1.4142135623730951, 0.5, False, 2.5): ("0x1.e1459950197cbp-1", "0x1.7d9e302b9f07fp-144"),
    (1.4142135623730951, 0.5, True, 0.3): ("0x1.380bb5d411d20p-1", "0x1.7efd91ec2547ep-118"),
    (1.4142135623730951, 0.5, True, 0.95): ("0x1.7492afeb9465ep-2", "0x1.deb1eea994f84p-115"),
    (1.4142135623730951, 0.5, True, 1.06): ("0x1.5e385b7365130p-2", "0x1.82c81fc43315fp-118"),
    (1.4142135623730951, 0.5, True, 2.5): ("0x1.8fbe30cd5f7dbp-3", "0x1.91f5c6d77c8f2p-138"),
}


def _outcome(alpha, rho, derivative, method, beta):
    params = validate(alpha, rho)
    choice = MethodChoice(method)
    try:
        planned = tuple((step.method.value, step.reason, step.run is not None)
                        for step in kappa_module.plan(params, beta, derivative, choice))
    except Exception as exc:  # noqa: BLE001  (the pin names the type raised)
        planned = type(exc).__name__
    try:
        res = (gprime_any_beta if derivative else g_any_beta)(params, beta, choice)
        result = (res.value.hex(), res.abs_error_bound.hex(), res.method.value,
                  res.terms_or_nodes_used)
    except Exception as exc:  # noqa: BLE001
        result = type(exc).__name__
    return planned, result


def _expected(pin):
    planned, result = pin
    if not isinstance(planned, str):
        planned = tuple(STEPS[name] for name in planned)
    return planned, result


def test_plan_pins_cover_every_case():
    assert len(PINS) == 3 * 2 * 4
    assert all(len(pins) == len(BETAS) for pins in PINS.values())
    assert {m for *_, m in PINS} == {m.value for m in MethodChoice}


@pytest.mark.parametrize("warm", [False, True])
def test_plan_and_values_match_their_pins(warm):
    kappa_module._steps.cache_clear()
    if warm:
        for key in PINS:
            for beta in BETAS:
                _outcome(*key, beta)
    for key, pins in PINS.items():
        for beta, pin in zip(BETAS, pins):
            if not warm:
                kappa_module._steps.cache_clear()
            assert _outcome(*key, beta) == _expected(pin), (key, beta)


def test_series_rows_lie_within_their_bounds_of_the_oracle():
    # the Doney rows too: every row of a method with its own bound, g and g'
    rows = 0
    for (alpha, rho, derivative, _), pins in PINS.items():
        for beta, (_, result) in zip(BETAS, pins):
            if isinstance(result, str) or result[2] not in ("series", "doney"):
                continue
            value, bound = float.fromhex(result[0]), float.fromhex(result[1])
            ref, err = (float.fromhex(x) for x in ORACLE[alpha, rho, derivative, beta])
            assert abs(value - ref) <= bound - err - 0.5 * math.ulp(ref), (alpha, beta)
            rows += 1
    assert rows == 56


if __name__ == "__main__":
    from oracles import g_mpmath, gprime_mpmath

    names = {step: name for name, step in STEPS.items()}
    rows = {}
    print("PINS = {")
    for (alpha, rho), derivative, method in itertools.product(
            ALPHAS, (False, True), ("auto", "doney", "series", "quadrature")):
        print(f"    ({'SQRT2' if alpha == SQRT2 else repr(alpha)}, {rho!r}, {derivative!r}, "
              f"{method!r}): (")
        for beta in BETAS:
            planned, result = _outcome(alpha, rho, derivative, method, beta)
            if not isinstance(planned, str):
                planned = tuple(names[step] for step in planned)
            print(f"        ({planned!r},\n         {result!r}),")
            if not isinstance(result, str) and result[2] in ("series", "doney"):
                rows[alpha, rho, derivative, beta] = None
        print("    ),")
    print("}")
    print("ORACLE = {")
    for alpha, rho, derivative, beta in sorted(rows):
        ref, err = (gprime_mpmath if derivative else g_mpmath)(alpha, rho, beta)
        print(f'    {(alpha, rho, derivative, beta)!r}: ("{float(ref).hex()}", '
              f'"{float(err).hex()}"),')
    print("}")
    sys.exit(0)
