"""Table union search: contrastive column embeddings + LSH retrieval."""

from .corpus import (Column, ColumnKey, Corpus, Table, load_csv,
                     load_manifest, sample_column, write_manifest,
                     write_table_csv)
from .encoder import Encoder, EncoderConfig, load_vectors
from .errors import (ConfigError, DuplicateKeyError, EmptyColumnError,
                     InputError, NumericError, UnionSearchError)
from .projection import (ProjectionHead, TrainConfig, Velocity, backward,
                         init_head, project, sgd_step)
from .contrast import (OfflinePair, TrainResult, build_offline_pairs,
                       build_online_batch, nt_xent_loss, train)
from .lshindex import CosineLshIndex, MinHashIndex
from .syntactic import (TfidfModel, build_profile, build_tfidf,
                        format_pattern, jaccard, name_qgrams, value_terms)
from .search import (AttributeMatch, IndexConfig, QueryResult, RankedTable,
                     SearchConfig, SearchEngine, attribute_unionability,
                     build_engine, match_attributes, table_unionability,
                     top_k_search, write_results)
from .bench import (BenchmarkSpec, GroundTruth, brute_force_search,
                    evaluate_engine, generate_benchmark,
                    precision_recall_at_k, timing_harness)
from .modelfile import (ModelBundle, load_index, load_model, save_index,
                        save_model)

__version__ = "0.1.0"
